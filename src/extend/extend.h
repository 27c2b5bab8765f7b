// Minimally extended authorized query plans (Def 5.4).
//
// Given a plan T and an assignment λ drawn from the candidate sets Λ, builds
// the extended plan T' that injects encryption and decryption operations so
// that λ is an authorized assignment (Thm 5.3(i)) while encrypting a minimal
// set of attributes (Thm 5.3(ii)):
//   (i)  before each operation, decrypt the operand attributes the operation
//        requires in plaintext;
//   (ii) after each operation n with parent n_o assigned to S_o, encrypt
//        (E_{S_o} ∩ Rvp) ∪ A, with A the attributes that n_o turns implicit
//        and that some ancestor assignee may only see encrypted.
// On top of the paper's formula, a small fix-point closure keeps compared
// attribute pairs (and udf inputs) uniformly encrypted so every operation in
// T' stays executable: an operation cannot compare a plaintext attribute
// with an encrypted one, nor two attributes encrypted under different keys.

#ifndef MPQ_EXTEND_EXTEND_H_
#define MPQ_EXTEND_EXTEND_H_

#include <optional>
#include <unordered_map>

#include "algebra/plan.h"
#include "authz/policy.h"
#include "candidates/candidates.h"
#include "common/status.h"

namespace mpq {

/// An assignment λ: node id → executing subject. Leaf (base-relation) nodes
/// are implicitly assigned to their owning data authority and may be omitted.
using Assignment = std::unordered_map<int, SubjectId>;

/// Result of plan extension.
struct ExtendedPlan {
  /// The extended tree. Original nodes keep their ids; injected
  /// encryption/decryption nodes receive fresh ids. Profiles are annotated.
  PlanPtr plan;
  /// λ extended to every node of `plan` (enc/dec operations are assigned to
  /// the subject of the operation they complement; leaves to their owner).
  Assignment assignment;
  /// Union of all attributes involved in encryption operations (Ak of
  /// Def 6.1).
  AttrSet encrypted_attrs;
};

/// Builds the minimally extended authorized plan for `root` under `lambda`.
///
/// `final_recipient`: subject receiving the query result (normally the user);
/// when set, attributes still encrypted at the root are decrypted by a final
/// operation assigned to the recipient, and the recipient's encrypted-only
/// attributes are never left plaintext at the root.
///
/// Fails with kUnauthorized when `lambda` picks a non-candidate (checked
/// against a fresh candidate computation) and with kInternal if the produced
/// plan fails validation — which would indicate a bug, per Thm 5.3(i).
Result<ExtendedPlan> BuildMinimallyExtendedPlan(
    const PlanNode* root, const Assignment& lambda, const Policy& policy,
    std::optional<SubjectId> final_recipient = std::nullopt);

/// Verifies that `lambda` is an authorized assignment for the (annotated)
/// extended plan per Def 4.2: every assignee is authorized for its operands
/// and its result. Used by tests of Theorem 5.3(i).
Status VerifyAuthorizedAssignment(const ExtendedPlan& ext,
                                  const Policy& policy);

}  // namespace mpq

#endif  // MPQ_EXTEND_EXTEND_H_
