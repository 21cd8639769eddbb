// kanon_baseline: a non-DP degree-k-anonymity / t-closeness baseline in
// the style of kt-safety (arXiv:2210.17479), slotted into the sweep grid
// so the DP mechanisms can be ranked against syntactic protection at
// "equivalent" strength.
//
// Fit (no accountant — the ledger is epsilon-free and must assert zero
// spend at validation):
//
//   1. Degree k-anonymization: nodes sorted by degree (descending, stable
//      by index) are grouped k at a time (the last group absorbs the
//      remainder); every member publishes its group's median degree, so
//      each published degree is shared by >= k nodes. k defaults to
//      min(n, max(2, round(2 / epsilon))) — the "equivalent protection"
//      heuristic that makes the baseline comparable across the epsilon
//      axis of a sweep (stronger DP <-> larger k).
//   2. t-closeness on attributes: each group's attribute-configuration
//      distribution q is blended toward the global distribution p just
//      enough that TV(q', p) <= t: q' = p + lambda (q - p) with
//      lambda = min(1, t / TV(q, p)).
//
// Sampling draws attributes from the group distributions and the
// structure from models::FastChungLu over the anonymized degree sequence.
#pragma once

#include "src/mechanisms/release_mechanism.h"

namespace agmdp::mechanisms {

MechanismSpec KanonBaselineMechanism();

}  // namespace agmdp::mechanisms
