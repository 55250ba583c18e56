// ConservativeReplica - the non-optimistic baseline ([1,12,16,17] in the
// paper): transactions execute only after TO-delivery, in definitive order.
//
// The paper defines it as OTP without the overlap, and so it is built: the
// OTP engine with ExecutionStart::to_delivery (core/otp_replica.h) - same
// broadcast, store, class queues, deadline clock, snapshot queries and
// recovery paths, but a transaction enters its queues only at TO-delivery.
// Execution order then always equals the definitive order, so there are
// never aborts or reorderings - but the full ordering latency of the
// broadcast sits on the critical path of every transaction. This is the
// direct ablation for the paper's overlap claim (bench/overlap_latency).
#pragma once

#include <memory>

#include "core/cluster.h"
#include "core/otp_replica.h"

namespace otpdb {

class ConservativeReplica final : public OtpReplica {
 public:
  ConservativeReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                      const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                      SiteId self)
      : OtpReplica(sim, abcast, storage, catalog, registry, self, OtpReplicaConfig{},
                   ExecutionStart::to_delivery) {}
};

/// Cluster factory building a ConservativeReplica at every site.
inline ReplicaFactory conservative_factory() {
  return [](const ReplicaDeps& d) {
    return std::make_unique<ConservativeReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                                 d.registry, d.site);
  };
}

}  // namespace otpdb
