// Memory-access traces and their compact replay form.
//
// The interpreter produces a `MemTrace` (full byte addresses) once per
// (program, input). Measurement campaigns then replay the trace hundreds of
// thousands of times under fresh random placements; `CompactTrace`
// pre-resolves every access to a dense per-cache line id so replay is a
// table lookup instead of a hash per access, and folds out the accesses
// that hit for every seed so replay only walks the ones that can differ.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/address.hpp"

namespace mbcr {

struct MemTrace {
  std::vector<Access> accesses;

  void emit(Addr addr, AccessKind kind) { accesses.push_back({addr, kind}); }
  std::size_t size() const { return accesses.size(); }

  /// Cache-line sequence for one side (instruction or data accesses).
  std::vector<Addr> line_sequence(bool instruction_side,
                                  Addr line_bytes = kDefaultLineBytes) const;

  /// Distinct cache lines touched on one side.
  std::size_t unique_lines(bool instruction_side,
                           Addr line_bytes = kDefaultLineBytes) const;
};

/// Replay-optimized trace: every access becomes (side, dense line id).
struct CompactTrace {
  struct Entry {
    std::uint32_t line_id;
    std::uint8_t is_instr;  // 1 = IL1, 0 = DL1
  };

  std::vector<Entry> entries;  ///< every access, in trace order

  /// Folded replay view of `entries`: the entries whose previous same-side
  /// entry names a different line (or that come first on their side). A
  /// folded-out entry re-touches the line its side touched last, and
  /// nothing ran on that side in between, so it hits for every seed under
  /// any placement and replacement; an L1 hit draws no replacement RNG and
  /// never reaches an L2. Replay walks only `replay` and charges the
  /// folded hits' base cycles as one per-trace constant.
  std::vector<Entry> replay;
  std::size_t folded_ifetch = 0;  ///< IL1 entries folded out of `replay`
  std::size_t folded_data = 0;    ///< DL1 entries folded out of `replay`

  std::vector<Addr> ilines;  ///< line number per IL1 dense id
  std::vector<Addr> dlines;  ///< line number per DL1 dense id

  /// Unified id space for a shared L2: the union of ilines and dlines,
  /// deduplicated by line number (a line both fetched and loaded gets ONE
  /// unified id, exactly as a real unified cache would see it).
  std::vector<Addr> ulines;              ///< line number per unified id
  std::vector<std::uint32_t> iline_uid;  ///< unified id per IL1 dense id
  std::vector<std::uint32_t> dline_uid;  ///< unified id per DL1 dense id

  static CompactTrace from(const MemTrace& trace,
                           Addr line_bytes = kDefaultLineBytes);

  /// Accesses in the trace (unfolded): `replay.size() + folded_ifetch +
  /// folded_data`.
  std::size_t size() const { return entries.size(); }
};

/// True iff `needle` is a subsequence of `haystack` (order-preserving,
/// not necessarily contiguous). Used to verify the PUB invariant.
bool is_subsequence(std::span<const Addr> needle,
                    std::span<const Addr> haystack);

}  // namespace mbcr
