#include "sat/solver.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"

namespace mighty::sat {

Solver::Solver() = default;

Var Solver::new_var() {
  const Var v = num_vars();
  vals_.push_back(0);
  vals_.push_back(0);
  saved_phase_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  heap_index_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

void Solver::boost_activity(Var v, double amount) {
  activity_[static_cast<size_t>(v)] += amount;
  if (heap_contains(v)) heap_up(heap_index_[static_cast<size_t>(v)]);
}

double Solver::clause_activity(ClauseRef c) const {
  double activity;
  std::memcpy(&activity, &arena_[c + kHeaderWords + clause_size(c)], sizeof activity);
  return activity;
}

void Solver::set_clause_activity(ClauseRef c, double activity) {
  std::memcpy(&arena_[c + kHeaderWords + clause_size(c)], &activity, sizeof activity);
}

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> lits, bool learnt, uint32_t lbd) {
  const auto cref = static_cast<ClauseRef>(arena_.size());
  MIGHTY_ASSERT(cref < (1u << 31));  // Watcher::cref has 31 bits
  arena_.push_back(static_cast<uint32_t>(lits.size()) << 1 | (learnt ? 1u : 0u));
  arena_.push_back(lbd);
  for (const Lit l : lits) arena_.push_back(static_cast<uint32_t>(l));
  if (learnt) {
    arena_.resize(arena_.size() + kActivityWords);
    set_clause_activity(cref, 0.0);
  }
  return cref;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  MIGHTY_ASSERT(decision_level() == 0);
  if (!ok_) return false;

  add_buffer_.assign(lits.begin(), lits.end());
  std::sort(add_buffer_.begin(), add_buffer_.end());
  size_t keep = 0;
  Lit prev = -2;
  for (const Lit l : add_buffer_) {
    MIGHTY_ASSERT(var_of(l) < num_vars());
    if (l == prev) continue;                  // duplicate literal
    if (l == negate(prev)) return true;       // tautology
    if (value_lit(l) == 1) return true;       // satisfied at top level
    if (value_lit(l) == -1) continue;         // falsified at top level
    add_buffer_[keep++] = l;
    prev = l;
  }

  if (keep == 0) {
    ok_ = false;
    return false;
  }
  ++num_problem_clauses_;
  if (keep == 1) {
    enqueue(add_buffer_[0], kNoReason);
    if (propagate() != kNoReason) {
      ok_ = false;
      return false;
    }
    return true;
  }
  attach_clause(alloc_clause(std::span<const Lit>(add_buffer_.data(), keep), false, 0));
  return true;
}

void Solver::attach_clause(ClauseRef cref) {
  const Lit* c = clause_lits(cref);
  const uint32_t binary = clause_size(cref) == 2 ? 1 : 0;
  MIGHTY_ASSERT(clause_size(cref) >= 2);
  watches_[static_cast<size_t>(c[0])].push_back({cref, binary, c[1]});
  watches_[static_cast<size_t>(c[1])].push_back({cref, binary, c[0]});
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  const Var v = var_of(l);
  MIGHTY_ASSERT(value_var(v) == 0);
  vals_[static_cast<size_t>(l)] = 1;
  vals_[static_cast<size_t>(negate(l))] = -1;
  level_[static_cast<size_t>(v)] = decision_level();
  reason_[static_cast<size_t>(v)] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    const Lit false_lit = negate(p);
    auto& ws = watches_[static_cast<size_t>(false_lit)];
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    while (i != end) {
      const Watcher w = *i++;
      const int8_t blocker_value = value_lit(w.blocker);
      if (blocker_value == 1) {
        *j++ = w;
        continue;
      }
      if (w.binary) {
        // The blocker is the clause's other literal: unit or conflicting.
        *j++ = w;
        if (blocker_value == 0) {
          enqueue(w.blocker, w.cref);
          continue;
        }
        // Conflict analysis reads a conflicting clause in literal order;
        // leave it as the long-clause path below would: [other, false_lit].
        Lit* c = clause_lits(w.cref);
        c[0] = w.blocker;
        c[1] = false_lit;
        while (i != end) *j++ = *i++;
        ws.resize(static_cast<size_t>(j - ws.data()));
        propagate_head_ = trail_.size();
        return w.cref;
      }
      Lit* c = clause_lits(w.cref);
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      MIGHTY_ASSERT(c[1] == false_lit);
      const Lit first = c[0];
      const Watcher kept{w.cref, 0, first};
      if (first != w.blocker && value_lit(first) == 1) {
        *j++ = kept;
        continue;
      }
      bool found_watch = false;
      const uint32_t size = clause_size(w.cref);
      for (uint32_t k = 2; k < size; ++k) {
        if (value_lit(c[k]) != -1) {
          std::swap(c[1], c[k]);
          watches_[static_cast<size_t>(c[1])].push_back(kept);
          found_watch = true;
          break;
        }
      }
      if (found_watch) continue;
      // Clause is unit under the current assignment, or conflicting.
      *j++ = kept;
      if (value_lit(first) == -1) {
        while (i != end) *j++ = *i++;
        ws.resize(static_cast<size_t>(j - ws.data()));
        propagate_head_ = trail_.size();
        return w.cref;
      }
      enqueue(first, w.cref);
    }
    ws.resize(static_cast<size_t>(j - ws.data()));
  }
  return kNoReason;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& out_learnt, int& out_btlevel) {
  int path_count = 0;
  Lit p = -1;
  out_learnt.clear();
  out_learnt.push_back(0);  // reserved for the asserting literal
  size_t index = trail_.size();

  auto visit = [&](Lit q) {
    const Var v = var_of(q);
    if (!seen_[static_cast<size_t>(v)] && level_[static_cast<size_t>(v)] > 0) {
      seen_[static_cast<size_t>(v)] = 1;
      bump_var(v);
      if (level_[static_cast<size_t>(v)] >= decision_level()) {
        ++path_count;
      } else {
        out_learnt.push_back(q);
      }
    }
  };

  ClauseRef confl = conflict;
  do {
    MIGHTY_ASSERT(confl != kNoReason);
    if (clause_learnt(confl)) bump_clause(confl);
    const Lit* c = clause_lits(confl);
    const uint32_t size = clause_size(confl);
    if (p == -1) {
      for (uint32_t k = 0; k < size; ++k) visit(c[k]);
    } else if (size == 2) {
      visit(c[0] == p ? c[1] : c[0]);  // a binary reason is not reordered
    } else {
      for (uint32_t k = 1; k < size; ++k) visit(c[k]);  // c[0] == p
    }
    while (!seen_[static_cast<size_t>(var_of(trail_[--index]))]) {
    }
    p = trail_[index];
    confl = reason_[static_cast<size_t>(var_of(p))];
    seen_[static_cast<size_t>(var_of(p))] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = negate(p);

  // Conflict-clause minimization: drop literals implied by the rest.
  analyze_clear_.assign(out_learnt.begin() + 1, out_learnt.end());
  uint32_t abstract_levels = 0;
  for (size_t k = 1; k < out_learnt.size(); ++k) {
    abstract_levels |= 1u << (level_[static_cast<size_t>(var_of(out_learnt[k]))] & 31);
  }
  size_t keep = 1;
  for (size_t k = 1; k < out_learnt.size(); ++k) {
    const Lit q = out_learnt[k];
    if (reason_[static_cast<size_t>(var_of(q))] == kNoReason ||
        !literal_redundant(q, abstract_levels)) {
      out_learnt[keep++] = q;
    }
  }
  out_learnt.resize(keep);

  // Find backtrack level: the second-highest decision level in the clause.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    size_t max_i = 1;
    for (size_t k = 2; k < out_learnt.size(); ++k) {
      if (level_[static_cast<size_t>(var_of(out_learnt[k]))] >
          level_[static_cast<size_t>(var_of(out_learnt[max_i]))]) {
        max_i = k;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[static_cast<size_t>(var_of(out_learnt[1]))];
  }

  for (const Lit l : analyze_clear_) seen_[static_cast<size_t>(var_of(l))] = 0;
  seen_[static_cast<size_t>(var_of(out_learnt[0]))] = 0;
}

bool Solver::literal_redundant(Lit l, uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef r = reason_[static_cast<size_t>(var_of(q))];
    MIGHTY_ASSERT(r != kNoReason);
    // Skip the literal the reason implies, !q: c[0] of a long clause, either
    // slot of a binary one.
    const Lit* c = clause_lits(r);
    const Lit* begin = c + 1;
    const Lit* end = c + clause_size(r);
    if (clause_size(r) == 2 && c[1] == negate(q)) {
      begin = c;
      end = c + 1;
    }
    for (const Lit* it = begin; it != end; ++it) {
      const Lit p = *it;
      const Var v = var_of(p);
      if (seen_[static_cast<size_t>(v)] || level_[static_cast<size_t>(v)] == 0) continue;
      if (reason_[static_cast<size_t>(v)] == kNoReason ||
          ((1u << (level_[static_cast<size_t>(v)] & 31)) & abstract_levels) == 0) {
        // Not removable: undo the marks made during this check.
        for (size_t m = top; m < analyze_clear_.size(); ++m) {
          seen_[static_cast<size_t>(var_of(analyze_clear_[m]))] = 0;
        }
        analyze_clear_.resize(top);
        return false;
      }
      seen_[static_cast<size_t>(v)] = 1;
      analyze_clear_.push_back(p);
      analyze_stack_.push_back(p);
    }
  }
  return true;
}

void Solver::backtrack(int target_level) {
  if (decision_level() <= target_level) return;
  const int bound = trail_lim_[static_cast<size_t>(target_level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    const Lit l = trail_[static_cast<size_t>(i)];
    const Var v = var_of(l);
    saved_phase_[static_cast<size_t>(v)] = value_var(v);
    vals_[static_cast<size_t>(l)] = 0;
    vals_[static_cast<size_t>(negate(l))] = 0;
    reason_[static_cast<size_t>(v)] = kNoReason;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(static_cast<size_t>(bound));
  trail_lim_.resize(static_cast<size_t>(target_level));
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch_literal() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (value_var(v) == 0) {
      const bool phase_true = saved_phase_[static_cast<size_t>(v)] > 0;
      return lit(v, !phase_true);
    }
  }
  return -1;
}

int Solver::compute_lbd(std::span<const Lit> lits) {
  ++lbd_stamp_;
  int distinct = 0;
  for (const Lit l : lits) {
    // Assumption levels may outnumber the variables: grow on demand.
    const auto level = static_cast<size_t>(level_[static_cast<size_t>(var_of(l))]);
    if (level >= level_stamp_.size()) level_stamp_.resize(level + 1, 0);
    auto& stamp = level_stamp_[level];
    if (stamp != lbd_stamp_) {
      stamp = lbd_stamp_;
      ++distinct;
    }
  }
  return distinct;
}

void Solver::bump_var(Var v) {
  activity_[static_cast<size_t>(v)] += var_inc_;
  if (activity_[static_cast<size_t>(v)] > 1e100) rescale_var_activity();
  if (heap_contains(v)) heap_up(heap_index_[static_cast<size_t>(v)]);
}

void Solver::rescale_var_activity() {
  for (auto& a : activity_) a *= 1e-100;
  var_inc_ *= 1e-100;
}

void Solver::bump_clause(ClauseRef c) {
  const double activity = clause_activity(c) + cla_inc_;
  set_clause_activity(c, activity);
  if (activity > 1e20) {
    for (ClauseRef r = 0; r < arena_.size(); r = next_clause(r)) {
      if (clause_learnt(r)) set_clause_activity(r, clause_activity(r) * 1e-20);
    }
    cla_inc_ *= 1e-20;
  }
}

void Solver::reduce_db() {
  MIGHTY_ASSERT(decision_level() == 0);
  ++stats_.reductions;
  // Collect learnt, non-locked clauses and drop the worse half by (lbd, act).
  std::vector<ClauseRef> learnts;
  const auto end = static_cast<ClauseRef>(arena_.size());
  for (ClauseRef c = 0; c < end; c = next_clause(c)) {
    if (!clause_learnt(c)) continue;
    const Lit first = clause_lits(c)[0];
    const bool locked =
        value_lit(first) == 1 && reason_[static_cast<size_t>(var_of(first))] == c;
    if (locked || clause_size(c) <= 2 || clause_lbd(c) <= 2) continue;
    learnts.push_back(c);
  }
  std::sort(learnts.begin(), learnts.end(), [&](ClauseRef a, ClauseRef b) {
    if (clause_lbd(a) != clause_lbd(b)) return clause_lbd(a) > clause_lbd(b);
    return clause_activity(a) < clause_activity(b);
  });
  learnts.resize(learnts.size() / 2);
  stats_.removed_clauses += learnts.size();
  std::sort(learnts.begin(), learnts.end());  // creation order, for the sweep

  // Every clause that is a reason at level 0 is satisfied there and dropped
  // below; level-0 reasons are never read again, so forget them.
  for (const Lit l : trail_) reason_[static_cast<size_t>(var_of(l))] = kNoReason;

  // Compact the arena in creation order, simplifying each clause against the
  // top-level assignment and rebuilding the watch lists over the survivors.
  for (auto& ws : watches_) ws.clear();
  auto removed = learnts.begin();
  ClauseRef to = 0;
  for (ClauseRef from = 0; from < end;) {
    const ClauseRef next = next_clause(from);
    if (removed != learnts.end() && *removed == from) {
      ++removed;
      from = next;
      continue;
    }
    const bool learnt = clause_learnt(from);
    const uint32_t lbd = clause_lbd(from);
    const double activity = learnt ? clause_activity(from) : 0.0;
    const Lit* src = clause_lits(from);
    Lit* dst = clause_lits(to);  // to <= from: an in-place forward copy
    const uint32_t size = clause_size(from);
    bool satisfied = false;
    uint32_t keep = 0;
    for (uint32_t k = 0; k < size; ++k) {
      const Lit l = src[k];
      if (value_lit(l) == 1 && level_[static_cast<size_t>(var_of(l))] == 0) {
        satisfied = true;
        break;
      }
      if (value_lit(l) == -1 && level_[static_cast<size_t>(var_of(l))] == 0) continue;
      dst[keep++] = l;
    }
    from = next;
    if (satisfied) continue;
    MIGHTY_ASSERT(keep > 0);
    if (keep == 1) {
      if (value_lit(dst[0]) == 0) enqueue(dst[0], kNoReason);
      continue;
    }
    arena_[to] = keep << 1 | (learnt ? 1u : 0u);
    arena_[to + 1] = lbd;
    if (learnt) set_clause_activity(to, activity);
    attach_clause(to);
    to = next_clause(to);
  }
  arena_.resize(to);
}

uint64_t Solver::luby(uint64_t i) {
  // Index into the Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (1-based).
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

Result Solver::solve(const std::vector<Lit>& assumptions, int64_t conflict_limit) {
  if (!ok_) return Result::unsat;
  model_.clear();
  backtrack(0);
  if (propagate() != kNoReason) {
    ok_ = false;
    return Result::unsat;
  }

  const uint64_t conflicts_start = stats_.conflicts;
  uint64_t restart_index = 0;
  uint64_t restart_budget = 100 * luby(++restart_index);
  uint64_t conflicts_since_restart = 0;
  std::vector<Lit> learnt;

  for (;;) {
    const ClauseRef confl = propagate();
    if (confl != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::unsat;
      }
      int bt_level = 0;
      analyze(confl, learnt, bt_level);
      backtrack(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef cref =
            alloc_clause(learnt, true, static_cast<uint32_t>(compute_lbd(learnt)));
        attach_clause(cref);
        bump_clause(cref);
        enqueue(learnt[0], cref);
        ++stats_.learnt_clauses;
      }
      decay_var_activity();
      cla_inc_ *= (1.0 / 0.999);

      if (conflict_limit >= 0 &&
          stats_.conflicts - conflicts_start >= static_cast<uint64_t>(conflict_limit)) {
        backtrack(0);
        return Result::unknown;
      }
      continue;
    }

    if (conflicts_since_restart >= restart_budget) {
      conflicts_since_restart = 0;
      restart_budget = 100 * luby(++restart_index);
      ++stats_.restarts;
      backtrack(0);
      if (stats_.learnt_clauses - stats_.removed_clauses > next_reduce_) {
        reduce_db();
        next_reduce_ += reduce_increment_;
      }
      continue;
    }

    // Assumption decisions come first, one level per assumption.
    if (static_cast<size_t>(decision_level()) < assumptions.size()) {
      const Lit a = assumptions[static_cast<size_t>(decision_level())];
      if (value_lit(a) == -1) {
        backtrack(0);
        return Result::unsat;  // assumption conflicts with the formula
      }
      new_decision_level();
      if (value_lit(a) == 0) enqueue(a, kNoReason);
      continue;
    }

    const Lit next = pick_branch_literal();
    if (next == -1) {
      // All variables assigned: a model has been found.
      model_.resize(static_cast<size_t>(num_vars()));
      for (Var v = 0; v < num_vars(); ++v) model_[static_cast<size_t>(v)] = value_var(v);
      backtrack(0);
      return Result::sat;
    }
    ++stats_.decisions;
    new_decision_level();
    enqueue(next, kNoReason);
  }
}

// --- activity-ordered binary heap -------------------------------------------

void Solver::heap_insert(Var v) {
  heap_index_[static_cast<size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_up(static_cast<int>(heap_.size()) - 1);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_index_[static_cast<size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[static_cast<size_t>(heap_[0])] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::heap_up(int i) {
  const Var v = heap_[static_cast<size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[static_cast<size_t>(heap_[static_cast<size_t>(parent)])] >=
        activity_[static_cast<size_t>(v)]) {
      break;
    }
    heap_[static_cast<size_t>(i)] = heap_[static_cast<size_t>(parent)];
    heap_index_[static_cast<size_t>(heap_[static_cast<size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_index_[static_cast<size_t>(v)] = i;
}

void Solver::heap_down(int i) {
  const Var v = heap_[static_cast<size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[static_cast<size_t>(heap_[static_cast<size_t>(child + 1)])] >
            activity_[static_cast<size_t>(heap_[static_cast<size_t>(child)])]) {
      ++child;
    }
    if (activity_[static_cast<size_t>(heap_[static_cast<size_t>(child)])] <=
        activity_[static_cast<size_t>(v)]) {
      break;
    }
    heap_[static_cast<size_t>(i)] = heap_[static_cast<size_t>(child)];
    heap_index_[static_cast<size_t>(heap_[static_cast<size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_index_[static_cast<size_t>(v)] = i;
}

}  // namespace mighty::sat
