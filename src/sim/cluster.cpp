#include "sim/cluster.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/recovery/state_io.hpp"

namespace mris {

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

Time Cluster::earliest_fit_on(const Job& job, MachineId m,
                              Time not_before) const {
  return machine(m).earliest_fit(not_before, job.processing, job.demand);
}

Time Cluster::earliest_fit(const Job& job, Time not_before,
                           MachineId& best_machine) const {
  Time best = std::numeric_limits<Time>::infinity();
  best_machine = kInvalidMachine;
  for (MachineId m = 0; m < num_machines(); ++m) {
    const Time s = earliest_fit_on(job, m, not_before);
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
  machines_[static_cast<std::size_t>(m)].release(start, duration, demand);
}

void Cluster::release_until(MachineId m, Time start, Time end,
                            std::span<const double> demand) {
  if (m < 0 || m >= num_machines()) {
    throw std::logic_error(
        "Cluster::release_until: machine index out of range");
  }
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
}

}  // namespace mris

