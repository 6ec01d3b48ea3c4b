// Wire <-> PlanRequest codec, shared by gaplan_serve, gaplan_worker and the
// router.
//
// Extracted from gaplan_serve's submit handler so every process that speaks
// the protocol parses a submit frame identically — the router relies on this
// when it re-renders a parsed request for a backend: parse_plan_request then
// render_submit_line is an exact roundtrip of every field the wire exposes,
// so router and worker compute the same request fingerprint (JsonWriter
// emits shortest-roundtrip doubles; fields the wire does not expose stay at
// their GaConfig defaults on both sides).
#pragma once

#include <string>

#include "core/config.hpp"
#include "server/plan_service.hpp"
#include "server/wire.hpp"

namespace gaplan::serve {

/// "random" | "state-aware" | "mixed" | "uniform" -> kind. False on any
/// other name.
bool parse_crossover_name(const std::string& name, ga::CrossoverKind& out);
const char* crossover_name(ga::CrossoverKind kind) noexcept;

/// Fills `req` from a submit frame (problem spec, GA overrides, seed,
/// priority, deadline, client tag, and the distribution layer's trace /
/// parent_span propagation fields). Returns false with a client-facing
/// `error` on a missing/bad problem spec, an unknown crossover name, or an
/// integer field that is fractional or out of range (WireMessage::
/// get_integer; the error names the field); absent keys leave the
/// corresponding field at its default.
bool parse_plan_request(const WireMessage& msg, PlanRequest& req,
                        std::string& error);

/// Renders `req` back into one submit frame carrying every wire-exposed
/// field explicitly (plus trace/parent_span when nonzero). The inverse of
/// parse_plan_request up to the wire-exposed field set.
std::string render_submit_line(const PlanRequest& req);

}  // namespace gaplan::serve
