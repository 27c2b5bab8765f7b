#include "service/metrics.h"

#include "common/json_util.h"

namespace mpq {


std::string ServiceMetrics::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  for (const ServiceMetricDef& d : kServiceMetrics) {
    w.Key(d.key).UInt(this->*d.field);
  }
  w.Key("hit_rate").Double(hit_rate);
  for (const LatencyMetricDef& d : kLatencyMetrics) {
    for (size_t q = 0; q < std::size(d.ms); ++q) {
      w.Key(std::string(d.key) + kLatencySuffixes[q]).Double(this->*d.ms[q]);
    }
  }
  w.Key("ops");
  ops.WriteJson(&w);
  w.EndObject();
  return w.TakeString();
}

}  // namespace mpq
