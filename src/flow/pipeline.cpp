#include "flow/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "api/error.hpp"
#include "check/check.hpp"
#include "flow/control.hpp"
#include "flow/session.hpp"

namespace mighty::flow {

namespace {

/// Pass-boundary verdict on the run control riding on the report: throws
/// api::Error with the matching stable code on cancellation or a blown
/// budget.  The conflict budget is charged with the SAT conflicts the run's
/// syntheses actually spent, summed over every decision problem.
void enforce_run_control(const RunControl* control, const mig::Mig& current,
                         const FlowReport& report) {
  if (control == nullptr) return;
  if (control->cancel.load(std::memory_order_relaxed)) {
    throw api::Error(api::ErrorCode::cancelled, "flow cancelled");
  }
  if (control->has_deadline &&
      std::chrono::steady_clock::now() >= control->deadline) {
    throw api::Error(api::ErrorCode::wall_budget_exceeded,
                     "flow exceeded its wall-clock budget");
  }
  if (control->node_budget != 0) {
    const uint32_t size = current.count_live_gates();
    if (size > control->node_budget) {
      throw api::Error(api::ErrorCode::node_budget_exceeded,
                       "network grew to " + std::to_string(size) +
                           " gates (budget " +
                           std::to_string(control->node_budget) + ")");
    }
  }
  if (control->conflict_budget != 0) {
    uint64_t spent = 0;
    for (const auto& pass : report.passes) spent += pass.oracle_conflicts;
    if (spent > control->conflict_budget) {
      throw api::Error(api::ErrorCode::conflict_budget_exceeded,
                       "flow spent " + std::to_string(spent) +
                           " SAT conflicts (budget " +
                           std::to_string(control->conflict_budget) + ")");
    }
  }
}

/// A pipeline nested as a single pass: the body of repeat()/until_convergence()
/// and of parenthesized script groups.
class GroupPass : public Pass {
public:
  explicit GroupPass(Pipeline body) : body_(std::move(body)) {}

  bool uses_oracle() const override { return body_.uses_oracle(); }
  bool mutates_session() const override { return body_.mutates_session(); }

protected:
  /// Body in script form, parenthesized whenever it is not a single plain
  /// word — nested combinators ("BF*2" inside a repeat) must group, or the
  /// emitted script would stack '*' suffixes the grammar rejects.
  std::string body_script() const {
    const auto script = body_.to_script();
    const bool plain_word =
        body_.num_passes() == 1 &&
        script.find_first_of("*();") == std::string::npos;
    return plain_word ? script : "(" + script + ")";
  }

  Pipeline body_;
};

class RepeatPass final : public GroupPass {
public:
  RepeatPass(Pipeline body, uint32_t times)
      : GroupPass(std::move(body)), times_(times) {}

  std::string name() const override {
    return body_script() + "*" + std::to_string(times_);
  }

  mig::Mig run(const mig::Mig& mig, Session& session,
               FlowReport& report) const override {
    mig::Mig current = mig;
    for (uint32_t i = 0; i < times_; ++i) {
      current = body_.run_into(current, session, report);
    }
    return current;
  }

private:
  uint32_t times_;
};

class ConvergePass final : public GroupPass {
public:
  static constexpr uint32_t kDefaultMaxRounds = kDefaultConvergenceRounds;

  ConvergePass(Pipeline body, uint32_t max_rounds)
      : GroupPass(std::move(body)), max_rounds_(max_rounds) {}

  std::string name() const override {
    // "*" alone means the default round cap; a custom cap needs the explicit
    // "*<N" form so the script re-parses to the same pipeline.
    if (max_rounds_ == kDefaultMaxRounds) return body_script() + "*";
    return body_script() + "*<" + std::to_string(max_rounds_);
  }

  mig::Mig run(const mig::Mig& mig, Session& session,
               FlowReport& report) const override {
    mig::Mig best = mig;
    uint32_t best_size = best.count_live_gates();
    uint32_t best_depth = best.depth();
    for (uint32_t round = 0; round < max_rounds_; ++round) {
      const size_t mark = report.passes.size();
      mig::Mig candidate = body_.run_into(best, session, report);
      const uint32_t size = candidate.count_live_gates();
      const uint32_t depth = candidate.depth();
      // A round must improve (size, depth) lexicographically to continue —
      // size-neutral depth reductions count, so depth-oriented bodies
      // converge too.  The non-improving round is rolled back entirely: its
      // output is discarded and its trajectory entries removed, so the
      // report describes exactly the network that is returned.
      if (size > best_size || (size == best_size && depth >= best_depth)) {
        report.passes.resize(mark);
        break;
      }
      best = std::move(candidate);
      best_size = size;
      best_depth = depth;
    }
    return best;
  }

private:
  uint32_t max_rounds_;
};

}  // namespace

Pipeline& Pipeline::add(std::shared_ptr<const Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

Pipeline& Pipeline::then(const Pipeline& other) {
  // Fixing the count first keeps self-append (p.then(p)) well defined.
  const size_t count = other.passes_.size();
  passes_.reserve(passes_.size() + count);
  for (size_t i = 0; i < count; ++i) passes_.push_back(other.passes_[i]);
  return *this;
}

Pipeline& Pipeline::rewrite(const std::string& variant) {
  return add(make_rewrite_pass(variant));
}

Pipeline& Pipeline::rewrite(const opt::RewriteParams& params, std::string name) {
  return add(make_rewrite_pass(params, std::move(name)));
}

Pipeline& Pipeline::size_opt(const algebra::SizeOptParams& params) {
  return add(make_size_pass(params));
}

Pipeline& Pipeline::depth_opt(const algebra::DepthOptParams& params) {
  return add(make_depth_pass(params));
}

Pipeline& Pipeline::lut_map(const map::MapParams& params) {
  return add(make_lut_map_pass(params));
}

Pipeline& Pipeline::parallel(uint32_t threads) {
  return add(make_parallel_pass(threads));
}

Pipeline& Pipeline::cache(std::string path) {
  return add(make_cache_pass(std::move(path)));
}

Pipeline& Pipeline::check() {
  return add(make_check_pass());
}

Pipeline Pipeline::repeat(uint32_t times) const {
  Pipeline result;
  result.add(std::make_shared<RepeatPass>(*this, times));
  return result;
}

Pipeline Pipeline::until_convergence(uint32_t max_rounds) const {
  Pipeline result;
  result.add(std::make_shared<ConvergePass>(*this, max_rounds));
  return result;
}

Pipeline Pipeline::from_tree(const ScriptTree& tree, uint32_t max_rounds) {
  Pipeline result;
  for (const auto& item : tree) {
    Pipeline piece = item.is_group() ? from_tree(item.body, max_rounds)
                                     : Pipeline().add(item.pass);
    switch (item.modifier) {
      case ScriptItem::Modifier::once:
        break;
      case ScriptItem::Modifier::repeat:
        piece = piece.repeat(item.count);
        break;
      case ScriptItem::Modifier::converge:
        piece = piece.until_convergence(std::min(item.count, max_rounds));
        break;
    }
    result.then(piece);
  }
  return result;
}

Pipeline Pipeline::interleave(std::initializer_list<Pipeline> phases) {
  return interleave(std::vector<Pipeline>(phases));
}

Pipeline Pipeline::interleave(const std::vector<Pipeline>& phases) {
  Pipeline result;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& phase : phases) {
      if (i < phase.passes_.size()) {
        result.passes_.push_back(phase.passes_[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return result;
}

mig::Mig Pipeline::run(const mig::Mig& mig, Session& session,
                       FlowReport* report, const RunControl* control) const {
  FlowReport local;
  FlowReport& out = report != nullptr ? (*report = FlowReport{}, *report) : local;
  out.control = control;  // after the reset above, which cleared it

  out.size_before = mig.count_live_gates();
  out.depth_before = mig.depth();
  const auto start = std::chrono::steady_clock::now();

  mig::Mig current = run_into(mig, session, out);

  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out.size_after = current.count_live_gates();
  out.depth_after = current.depth();
  out.accumulate_oracle_totals();
  return current;
}

mig::Mig Pipeline::run_into(const mig::Mig& mig, Session& session,
                            FlowReport& report) const {
  mig::Mig current = mig;
  enforce_run_control(report.control, current, report);
  for (const auto& pass : passes_) {
    current = pass->run(current, session, report);
    enforce_run_control(report.control, current, report);
    // Between-pass invariant checking: composite passes recurse through
    // run_into, so every intermediate network of every nesting level is
    // covered.  A violation here is a bug in the pass that just ran — stop
    // at the first one, before later passes smear the evidence.
    const CheckLevel level = session.check_level();
    if (level != CheckLevel::off) {
      const auto checked =
          check::validate_at(current, level == CheckLevel::full);
      if (!checked.ok()) {
        throw std::logic_error("invariant check failed after pass '" +
                               pass->name() + "':\n" + checked.summary());
      }
    }
  }
  return current;
}

bool Pipeline::uses_oracle() const {
  for (const auto& pass : passes_) {
    if (pass->uses_oracle()) return true;
  }
  return false;
}

bool Pipeline::mutates_session() const {
  for (const auto& pass : passes_) {
    if (pass->mutates_session()) return true;
  }
  return false;
}

std::string Pipeline::to_script() const {
  std::string result;
  for (const auto& pass : passes_) {
    if (!result.empty()) result += ";";
    result += pass->name();
  }
  return result;
}

// --- FlowReport --------------------------------------------------------------

uint64_t FlowReport::cuts_evaluated() const {
  uint64_t total = 0;
  for (const auto& pass : passes) total += pass.cuts_evaluated;
  return total;
}

uint64_t FlowReport::replacements() const {
  uint64_t total = 0;
  for (const auto& pass : passes) total += pass.replacements;
  return total;
}

void FlowReport::accumulate_oracle_totals() {
  counts() = {};
  for (const auto& pass : passes) counts() += pass;
}

const PassStats* FlowReport::last_mapping() const {
  for (auto it = passes.rbegin(); it != passes.rend(); ++it) {
    if (it->is_mapping) return &*it;
  }
  return nullptr;
}

std::string FlowReport::summary() const {
  std::string out;
  char line[224];
  std::snprintf(line, sizeof(line), "%4s  %-10s %18s %13s %9s  %s\n", "#", "pass",
                "size", "depth", "time[s]", "detail");
  out += line;
  for (size_t i = 0; i < passes.size(); ++i) {
    const auto& p = passes[i];
    char detail[64] = "";
    if (p.is_mapping) {
      std::snprintf(detail, sizeof(detail), "%u LUTs, depth %u", p.num_luts,
                    p.lut_depth);
    } else if (p.cuts_evaluated > 0 || p.replacements > 0) {
      std::snprintf(detail, sizeof(detail), "%llu cuts, %llu replacements",
                    static_cast<unsigned long long>(p.cuts_evaluated),
                    static_cast<unsigned long long>(p.replacements));
    }
    std::snprintf(line, sizeof(line), "%4zu  %-10s %8u -> %6u %5u -> %4u %9.2f  %s\n",
                  i + 1, p.name.c_str(), p.size_before, p.size_after, p.depth_before,
                  p.depth_after, p.seconds, detail);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total %8u -> %6u gates, %4u -> %4u depth, %.2fs, "
                "oracle %llu/%llu answered (%.0f%%)\n",
                size_before, size_after, depth_before, depth_after, seconds,
                static_cast<unsigned long long>(oracle_answered),
                static_cast<unsigned long long>(oracle_queries),
                100.0 * oracle_hit_rate());
  out += line;
  out += five_input_line();
  return out;
}

}  // namespace mighty::flow
