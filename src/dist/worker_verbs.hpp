// The distribution verbs a gaplan_worker adds to the serve protocol table
// (server/protocol.hpp), driven by the router (dist/router.hpp):
//
//   {"cmd":"ping"}                                 liveness (heartbeat)
//   {"cmd":"cache_probe","fp":"<32hex>"}           distributed cache tier
//   {"cmd":"cache_put","fp":…,"plan":[…],…}        peer gossip / repair
//   {"cmd":"cache_del","fp":…}                     peer eviction gossip
//   {"cmd":"ishard",…,"begin":b,"end":e}           cross-process island shard
//   {"cmd":"istep"|"icollect"|"imigrate"|"iadvance"|"ifinish"|"iabort",
//    "shard":token,…}
//
// The cache verbs act on the protocol's PlanService without firing its
// cache listener, so gossip never re-gossips. The island verbs keep one
// ShardJob (dist/island_shard.hpp) per router-chosen shard token.
#pragma once

#include "server/protocol.hpp"

namespace gaplan::dist {

/// Appends the verbs above to `protocol`. The island-shard table is owned
/// by the registered verbs and lives as long as `protocol`.
void add_worker_verbs(serve::Protocol& protocol);

}  // namespace gaplan::dist
