// The verbs of a gaplan_worker: the PlanService verbs of gaplan_serve
// (server/protocol.hpp) plus the distribution verbs the router
// (dist/router.hpp) drives:
//
//   {"cmd":"ping"}                                 liveness (heartbeat)
//   {"cmd":"cache_probe","fp":"<32hex>"}           distributed cache tier
//   {"cmd":"cache_put","fp":…,"plan":[…],…}        peer gossip / repair
//   {"cmd":"cache_del","fp":…}                     peer eviction gossip
//   {"cmd":"ishard",…,"begin":b,"end":e}           cross-process island shard
//   {"cmd":"istep"|"icollect"|"imigrate"|"iadvance"|"ifinish"|"iabort",
//    "shard":token,…}
//
// The cache verbs act on the worker's PlanService without firing its
// cache listener, so gossip never re-gossips. The island verbs keep one
// ShardJob (dist/island_shard.hpp) per router-chosen shard token; icollect
// and imigrate pass its migrant frames through as they are.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "dist/island_shard.hpp"
#include "server/protocol.hpp"

namespace gaplan::dist {

/// Appends serve::add_service_verbs and the verbs above to `protocol`, over
/// `service`, which must outlive it. The island-shard table is owned by the
/// registered verbs and lives as long as `protocol`.
void add_worker_verbs(serve::Protocol& protocol, serve::PlanService& service);

/// Sends one island-verb line to the worker holding a shard and returns its
/// answer. Throws when the worker cannot be reached or answers an error.
using ShardCall = std::function<serve::WireMessage(const std::string& line)>;

/// The client side of the island verbs: a ShardJob for islands [begin, end)
/// that a worker holds under `token` (ishard already answered), one call per
/// method — istep, icollect, imigrate, iadvance, ifinish. Throws what `call`
/// throws, and on a malformed icollect or ifinish answer.
std::unique_ptr<ShardJob> make_remote_shard(ShardCall call, std::string token,
                                            std::size_t begin,
                                            std::size_t end);

}  // namespace gaplan::dist
