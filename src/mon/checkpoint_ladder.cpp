#include "mon/checkpoint_ladder.hpp"

#include "mon/vm.hpp"
#include "support/diagnostics.hpp"

namespace loom::mon {

std::size_t CheckpointLadder::begin_recording(Monitor& recorder,
                                              std::size_t events,
                                              std::size_t stride) {
  LOOM_DASSERT(stride > 0);
  const std::size_t rungs = events / stride;
  count_ = 0;
  slab_.clear();
  snapshots_.clear();
  if (auto* vm = dynamic_cast<VmMonitor*>(&recorder)) {
    rung_words_ = vm_rung_words(vm->program());
    slab_.resize(rungs * rung_words_);
  } else {
    rung_words_ = 0;
    snapshots_.resize(rungs);
  }
  return rungs;
}

bool CheckpointLadder::save_rung(Monitor& recorder, std::size_t k) {
  LOOM_DASSERT(k == count_);
  if (compact()) {
    if (!static_cast<VmMonitor&>(recorder).save_rung(slab_.data() +
                                                    k * rung_words_)) {
      return false;
    }
  } else {
    // One monitor's rungs share a shape: sizing each buffer after the
    // previous rung lets the snapshot write without regrowing.
    if (k > 0) snapshots_[k].reserve_like(snapshots_[k - 1]);
    recorder.snapshot(snapshots_[k]);
  }
  ++count_;
  return true;
}

void CheckpointLadder::end_recording() {
  if (compact()) slab_.resize(count_ * rung_words_);
}

void CheckpointLadder::restore_into(std::size_t k, Monitor& monitor) const {
  LOOM_DASSERT(k < count_);
  if (compact()) {
    LOOM_DASSERT(dynamic_cast<VmMonitor*>(&monitor) != nullptr);
    static_cast<VmMonitor&>(monitor).load_rung(slab_.data() + k * rung_words_);
  } else {
    monitor.restore(snapshots_[k]);
  }
}

}  // namespace loom::mon
