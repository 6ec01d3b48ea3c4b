#include "dist/cache_wire.hpp"

#include <cmath>

namespace gaplan::dist {

std::optional<serve::Fingerprint> parse_fp_field(
    const serve::WireMessage& msg) {
  const std::string* hex = msg.get_string("fp");
  if (!hex) return std::nullopt;
  return serve::parse_fingerprint_hex(*hex);
}

void append_cached_plan(serve::JsonWriter& w, const serve::CachedPlan& plan) {
  w.field("valid", plan.valid)
      .raw_field("plan", serve::render_int_array(plan.plan))
      .field("plan_cost", plan.plan_cost)
      .field("goal_fitness", plan.goal_fitness)
      .field("phases", static_cast<std::uint64_t>(plan.phases_run))
      .field("generations",
             static_cast<std::uint64_t>(plan.generations_total));
}

bool parse_cached_plan(const serve::WireMessage& msg, serve::CachedPlan& out,
                       std::string& error) {
  const std::vector<double>* plan = msg.get_array("plan");
  if (!plan) {
    error = "missing 'plan' array";
    return false;
  }
  out.plan.clear();
  out.plan.reserve(plan->size());
  for (const double v : *plan) {
    if (!serve::wire_int_in_range(v)) {
      error = "non-integer plan step";
      return false;
    }
    out.plan.push_back(static_cast<int>(v));
  }
  out.valid = msg.get_bool("valid").value_or(false);
  out.plan_cost = msg.get_number("plan_cost").value_or(0.0);
  out.goal_fitness = msg.get_number("goal_fitness").value_or(0.0);
  out.phases_run = 0;
  out.generations_total = 0;
  return msg.get_integer("phases", out.phases_run, error) &&
         msg.get_integer("generations", out.generations_total, error);
}

std::string render_cache_probe(const serve::Fingerprint& fp) {
  serve::JsonWriter w;
  w.field("cmd", "cache_probe").field("fp", std::string_view(fp.hex()));
  return w.finish();
}

std::string render_cache_put(const serve::Fingerprint& fp,
                             const serve::CachedPlan& plan) {
  serve::JsonWriter w;
  w.field("cmd", "cache_put").field("fp", std::string_view(fp.hex()));
  append_cached_plan(w, plan);
  return w.finish();
}

std::string render_cache_del(const serve::Fingerprint& fp) {
  serve::JsonWriter w;
  w.field("cmd", "cache_del").field("fp", std::string_view(fp.hex()));
  return w.finish();
}

}  // namespace gaplan::dist
