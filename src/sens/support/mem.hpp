// Process memory probes for the scale benches (DESIGN.md §2.8).
//
// Linux exposes the peak resident set size as the VmHWM line of
// /proc/self/status; on other platforms the probe returns 0 and callers
// print nothing. Two caveats the consumers must respect: VmHWM is monotone
// over the process lifetime — a per-stage reading is the cumulative
// high-water mark, not that stage's footprint — and residency is an OS
// decision, so the numbers are measurements, never part of a
// deterministic (--json) document.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>

namespace sens {

/// The value of a `key: N kB` line of /proc/self/status, in bytes;
/// 0 when the file or the key is unavailable.
[[nodiscard]] inline std::size_t proc_status_bytes(const std::string& key) {
  std::ifstream status("/proc/self/status");
  if (!status) return 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::size_t kib = 0;
    for (const char c : line) {
      if (c >= '0' && c <= '9') {
        kib = kib * 10 + static_cast<std::size_t>(c - '0');
      } else if (kib > 0) {
        break;
      }
    }
    return kib * 1024;
  }
  return 0;
}

/// Peak resident set size (VmHWM) in bytes; 0 when unavailable. Monotone
/// over the process lifetime.
[[nodiscard]] inline std::size_t peak_rss_bytes() { return proc_status_bytes("VmHWM"); }

}  // namespace sens
