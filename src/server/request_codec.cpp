#include "server/request_codec.hpp"

#include "server/problem_spec.hpp"

namespace gaplan::serve {

bool parse_crossover_name(const std::string& name, ga::CrossoverKind& out) {
  using ga::CrossoverKind;
  if (name == "random") out = CrossoverKind::kRandom;
  else if (name == "state-aware") out = CrossoverKind::kStateAware;
  else if (name == "mixed") out = CrossoverKind::kMixed;
  else if (name == "uniform") out = CrossoverKind::kUniform;
  else return false;
  return true;
}

const char* crossover_name(ga::CrossoverKind kind) noexcept {
  switch (kind) {
    case ga::CrossoverKind::kRandom: return "random";
    case ga::CrossoverKind::kStateAware: return "state-aware";
    case ga::CrossoverKind::kMixed: return "mixed";
    case ga::CrossoverKind::kUniform: return "uniform";
  }
  return "random";
}

bool parse_plan_request(const WireMessage& msg, PlanRequest& req,
                        std::string& error) {
  const std::string* problem = msg.get_string("problem");
  if (!problem) {
    error = "submit needs a 'problem' spec string";
    return false;
  }
  std::string parse_error;
  const auto spec = ProblemSpec::parse(*problem, parse_error);
  if (!spec) {
    error = std::move(parse_error);
    return false;
  }
  req.problem = *spec;
  if (!msg.get_integer("pop", req.config.population_size, error) ||
      !msg.get_integer("gens", req.config.generations, error) ||
      !msg.get_integer("phases", req.config.phases, error) ||
      !msg.get_integer("initlen", req.config.initial_length, error) ||
      !msg.get_integer("maxlen", req.config.max_length, error) ||
      !msg.get_integer("seed", req.seed, error) ||
      !msg.get_integer("priority", req.priority, error) ||
      !msg.get_integer("trace", req.trace, error) ||
      !msg.get_integer("parent_span", req.parent_span, error)) {
    return false;
  }
  if (const auto v = msg.get_number("mutation")) req.config.mutation_rate = *v;
  if (const auto v = msg.get_number("crossover_rate"))
    req.config.crossover_rate = *v;
  if (const auto b = msg.get_bool("stop_on_valid"))
    req.config.stop_on_valid = *b;
  if (const std::string* s = msg.get_string("crossover")) {
    if (!parse_crossover_name(*s, req.config.crossover)) {
      error = "unknown crossover '" + *s +
              "' (random|state-aware|mixed|uniform)";
      return false;
    }
  }
  if (const auto v = msg.get_number("deadline_ms")) req.deadline_ms = *v;
  if (const std::string* s = msg.get_string("client")) req.client = *s;
  return true;
}

std::string render_submit_line(const PlanRequest& req) {
  JsonWriter w;
  w.field("cmd", "submit")
      .field("problem", std::string_view(req.problem.text()))
      .field("pop", static_cast<std::uint64_t>(req.config.population_size))
      .field("gens", static_cast<std::uint64_t>(req.config.generations))
      .field("phases", static_cast<std::uint64_t>(req.config.phases))
      .field("initlen", static_cast<std::uint64_t>(req.config.initial_length))
      .field("maxlen", static_cast<std::uint64_t>(req.config.max_length))
      .field("mutation", req.config.mutation_rate)
      .field("crossover_rate", req.config.crossover_rate)
      .field("stop_on_valid", req.config.stop_on_valid)
      .field("crossover", crossover_name(req.config.crossover))
      .field("seed", req.seed)
      .field("priority", req.priority)
      .field("deadline_ms", req.deadline_ms);
  if (!req.client.empty()) w.field("client", std::string_view(req.client));
  if (req.trace != 0) w.field("trace", req.trace);
  if (req.parent_span != 0) w.field("parent_span", req.parent_span);
  return w.finish();
}

}  // namespace gaplan::serve
