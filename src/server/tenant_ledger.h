// Per-tenant epsilon accounting for the serving daemon.
//
// The privacy spend of a release happened at fit time and travels inside
// the ReleaseArtifact (its accountant ledger and epsilon_spent). What the
// *server* must enforce is the aggregate: a tenant who can name many
// artifacts must not accumulate more total epsilon than their cap across
// requests, across cached engines, and across cache evictions — the
// per-user budget semantics of personalized-DP release systems (Li et al.,
// arXiv:1709.09454).
//
// Semantics:
//   * Each tenant has a budget (per-tenant override or the default).
//   * Charge(tenant, release_key, epsilon) debits the tenant ONCE per
//     release key (pipeline/release_artifact.h): sampling the same release a
//     thousand times, or re-loading it after an eviction, is free — the
//     paper's Theorem 2 post-processing guarantee. A *different* release
//     is a new debit.
//   * A debit that would exceed the budget fails with a typed
//     ResourceExhausted and leaves the ledger unchanged; other tenants are
//     unaffected.
//
// Thread-safe: check-and-debit is atomic under one mutex, so concurrent
// requests cannot race a tenant past their cap.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace agmdp::server {

struct TenantLedgerOptions {
  /// Budget for tenants without an explicit entry. <= 0 means unknown
  /// tenants are rejected outright.
  double default_budget = 0.0;
  /// Per-tenant budget overrides.
  std::vector<std::pair<std::string, double>> budgets;
};

/// \brief Aggregated epsilon spend per tenant, enforced at request time.
class TenantLedger {
 public:
  explicit TenantLedger(TenantLedgerOptions options);

  /// Atomically debits `epsilon` against `tenant` for `release_key`,
  /// unless that key was already charged to this tenant (then a no-op
  /// success). Fails with ResourceExhausted when the debit would exceed
  /// the tenant's budget, InvalidArgument on an empty tenant name, and
  /// ResourceExhausted naming the tenant when unknown tenants are
  /// rejected. When `newly_charged` is non-null it reports whether this
  /// call actually debited (false for the idempotent re-charge) — the
  /// server journals a durable registry record only for fresh debits.
  util::Status Charge(const std::string& tenant, uint64_t release_key,
                      double epsilon, bool* newly_charged = nullptr);

  /// Replays a durable charge at startup, bypassing the budget check: the
  /// registry already acknowledged this spend in a previous process life,
  /// so it must be reflected even if budgets were lowered since (the
  /// over-budget tenant is then simply unable to load anything new).
  void Restore(const std::string& tenant, uint64_t release_key,
               double epsilon);

  /// Total epsilon debited to the tenant so far (0 for unknown tenants).
  double Spent(const std::string& tenant) const;
  /// The tenant's budget (the default for tenants without an override).
  double Budget(const std::string& tenant) const;

  /// (tenant, spent, budget) rows for the stats op, sorted by tenant.
  struct TenantRow {
    std::string tenant;
    double spent = 0.0;
    double budget = 0.0;
  };
  std::vector<TenantRow> Rows() const;

 private:
  struct TenantState {
    double budget = 0.0;
    double spent = 0.0;
    /// Release keys already charged — the idempotence set.
    std::vector<uint64_t> charged;
  };

  /// Finds or creates the tenant's state (callers hold mu_).
  TenantState* Resolve(const std::string& tenant);

  TenantLedgerOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, TenantState> tenants_;
};

}  // namespace agmdp::server
