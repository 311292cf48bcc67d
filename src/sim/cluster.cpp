#include "sim/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/recovery/state_io.hpp"

namespace mris {

namespace {

/// earliest_fit memo classes per cluster.  Past the cap (continuous
/// demand vectors) new rows run the plain scan.
constexpr std::size_t kMaxFitClasses = 64;

/// Slots of the open-addressed table that finds a row's class: twice the
/// cap, so a lookup that matches no class probes ~2.5 slots on average.
constexpr std::size_t kFitSlotBits = 7;
constexpr std::size_t kFitSlots = std::size_t{1} << kFitSlotBits;
static_assert(kFitSlots >= 2 * kMaxFitClasses && kMaxFitClasses < 256);

/// Hash of a demand row's bit patterns (its top bits pick the slot).  The
/// per-entry products are independent (no serial multiply chain), which
/// keeps the pass cheap on wide rows.
std::uint64_t fit_key(std::span<const double> demand) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0;
  std::uint64_t m = kMul;
  for (const double d : demand) {
    h += std::bit_cast<std::uint64_t>(d) * m;
    m += 2 * kMul;  // a distinct odd multiplier per position
  }
  h ^= h >> 32;
  return h * kMul;
}

}  // namespace

Cluster::Cluster(int num_machines, int num_resources)
    : num_resources_(num_resources) {
  if (num_machines < 1) throw std::invalid_argument("Cluster: machines >= 1");
  if (num_resources < 1)
    throw std::invalid_argument("Cluster: resources >= 1");
  machines_.reserve(static_cast<std::size_t>(num_machines));
  for (int m = 0; m < num_machines; ++m) {
    machines_.emplace_back(num_resources);
  }
}

bool Cluster::fits(const Job& job, MachineId m, Time start) const {
  return machine(m).fits(start, job.processing, job.demand);
}

int Cluster::fit_class(std::span<const double> demand) const {
  // Rows compare by bytes: only a bit-identical row shares a staircase.  A
  // row that matches no class costs one hash pass and a few probes,
  // whatever the number of classes.
  if (fit_slots_.empty()) fit_slots_.assign(kFitSlots, 0);
  const std::uint64_t key = fit_key(demand);
  const std::size_t width = demand.size();
  std::size_t slot = key >> (64 - kFitSlotBits);
  // The table is at most half full, so an empty slot ends every probe run.
  for (; fit_slots_[slot] != 0; slot = (slot + 1) % kFitSlots) {
    const std::size_t k = fit_slots_[slot] - 1u;
    if (fit_keys_[k] == key &&
        std::memcmp(fit_rows_.data() + k * width, demand.data(),
                    width * sizeof(double)) == 0) {
      return static_cast<int>(k);
    }
  }
  if (fit_keys_.size() == kMaxFitClasses) return -1;
  fit_keys_.push_back(key);
  fit_rows_.insert(fit_rows_.end(), demand.begin(), demand.end());
  stairs_.resize(fit_keys_.size() * machines_.size());
  fit_slots_[slot] = static_cast<std::uint8_t>(fit_keys_.size());
  return static_cast<int>(fit_keys_.size() - 1);
}

void Cluster::clear_staircases(std::size_t m) {
  for (std::size_t i = m; i < stairs_.size(); i += machines_.size()) {
    stairs_[i].clear();
  }
  if (std::all_of(stairs_.begin(), stairs_.end(),
                  [](const FitStaircase& st) { return st.steps.empty(); })) {
    clear_fit_memo();
  }
}

void Cluster::clear_fit_memo() {
  // Staircases are cleared, not dropped, so their buffers are reused.
  for (FitStaircase& st : stairs_) st.clear();
  fit_keys_.clear();
  fit_rows_.clear();
  fit_slots_.clear();
}

Time Cluster::earliest_fit_on(const Job& job, MachineId m,
                              Time not_before) const {
  const ResourceProfile& profile = machine(m);
  return profile.earliest_fit(
      not_before, job.processing, job.demand, 1e-9,
      std::numeric_limits<Time>::infinity(),
      staircase(fit_class(job.demand), static_cast<std::size_t>(m)));
}

Time Cluster::earliest_fit(const Job& job, Time not_before,
                           MachineId& best_machine,
                           std::span<const Time> floors) const {
  Time best = std::numeric_limits<Time>::infinity();
  best_machine = kInvalidMachine;
  const int k = fit_class(job.demand);  // one lookup for every machine
  for (MachineId m = 0; m < num_machines(); ++m) {
    const auto mi = static_cast<std::size_t>(m);
    const Time from =
        floors.empty() ? not_before : std::max(not_before, floors[mi]);
    // A machine whose answer is >= best loses the strict comparison below
    // (lowest index wins ties), so its search may stop at best.
    const Time s = machines_[mi].earliest_fit(
        from, job.processing, job.demand, 1e-9, best, staircase(k, mi));
    if (s < best) {
      best = s;
      best_machine = m;
    }
  }
  return best;
}

void Cluster::reserve(const Job& job, MachineId m, Time start) {
  if (m < 0 || m >= num_machines()) {
    throw std::logic_error("Cluster::reserve: machine index out of range");
  }
  if (!fits(job, m, start)) {
    throw std::logic_error("Cluster::reserve: job " + std::to_string(job.id) +
                           " does not fit on machine " + std::to_string(m) +
                           " at t=" + std::to_string(start));
  }
  machines_[static_cast<std::size_t>(m)].reserve(start, job.processing,
                                                 job.demand);
}

void Cluster::release(MachineId m, Time start, Time duration,
                      std::span<const double> demand) {
  if (m < 0 || m >= num_machines()) {
    throw std::logic_error("Cluster::release: machine index out of range");
  }
  clear_staircases(static_cast<std::size_t>(m));  // answers may move earlier
  machines_[static_cast<std::size_t>(m)].release(start, duration, demand);
}

void Cluster::release_until(MachineId m, Time start, Time end,
                            std::span<const double> demand) {
  if (m < 0 || m >= num_machines()) {
    throw std::logic_error(
        "Cluster::release_until: machine index out of range");
  }
  clear_staircases(static_cast<std::size_t>(m));  // answers may move earlier
  machines_[static_cast<std::size_t>(m)].release_until(start, end, demand);
}

void Cluster::force_reserve(MachineId m, Time start, Time duration,
                            std::span<const double> demand) {
  if (m < 0 || m >= num_machines()) {
    throw std::logic_error(
        "Cluster::force_reserve: machine index out of range");
  }
  machines_[static_cast<std::size_t>(m)].force_reserve(start, duration,
                                                       demand);
}

void Cluster::force_reserve_until(MachineId m, Time start, Time end,
                                  std::span<const double> demand) {
  if (m < 0 || m >= num_machines()) {
    throw std::logic_error(
        "Cluster::force_reserve_until: machine index out of range");
  }
  machines_[static_cast<std::size_t>(m)].force_reserve_until(start, end,
                                                             demand);
}

void Cluster::block(MachineId m, Time from, Time to) {
  const std::vector<double> full(static_cast<std::size_t>(num_resources_),
                                 1.0);
  force_reserve_until(m, from, to, full);
}

void Cluster::prune_before(Time t) {
  for (auto& m : machines_) m.prune_before(t);
}

void Cluster::available_into(MachineId m, Time t,
                             std::span<double> out) const {
  machine(m).available_at(t, out);
}

FitCounters Cluster::fit_counters() const {
  FitCounters total;
  for (const auto& p : machines_) total += p.fit_counters();
  return total;
}

Time Cluster::horizon() const {
  Time h = 0.0;
  for (const auto& m : machines_) h = std::max(h, m.horizon());
  return h;
}


void Cluster::save_state(recovery::StateWriter& w) const {
  for (const ResourceProfile& m : machines_) m.save_state(w);
}

void Cluster::restore_state(recovery::StateReader& r) {
  for (ResourceProfile& m : machines_) m.restore_state(r);
  clear_fit_memo();
}

}  // namespace mris

