// Fixture for the --stale audit over ts-guard: add() touches the guarded
// field without naming its mutex (live allow, kept); size() has since
// taken the lock, so its allow suppresses nothing (stale, reported).
#pragma once

#include <mutex>
#include <vector>

class Queue {
 public:
  // mris-analyze: allow(ts-guard)
  void add(int v) { items_.push_back(v); }

  int size() const {
    std::lock_guard<std::mutex> lock(mu_);
    // mris-analyze: allow(ts-guard)
    return static_cast<int>(items_.size());
  }

 private:
  mutable std::mutex mu_;
  std::vector<int> items_ MRIS_GUARDED_BY(mu_);
};
