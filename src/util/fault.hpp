// Deterministic fault injection (DESIGN.md §R).
//
// A process-wide injector with named sites threaded through the I/O and
// serving layers.  Chaos tests (and operators reproducing a field
// failure) arm it with a spec string — via configure() or the
// RNX_FAULT_SPEC environment variable — and every armed run replays the
// EXACT same failure sequence: rules fire on deterministic hit counts
// (or a seeded Bernoulli stream), never on wall time or thread timing.
//
// Spec grammar (semicolon-separated rules):
//
//   RNX_FAULT_SPEC="<site>=<directive>[,<modifier>...];..."
//
//   directives:  nth:K     fire on exactly the Kth hit of the site
//                every:N   fire on every Nth hit
//                prob:P    fire with probability P per hit (seeded
//                          stream; add seed:S to change it)
//                always    fire on every hit
//   modifiers:   limit:M   stop after M firings
//                param:U   integer payload a site may consume (e.g.
//                          serve.execute.slow sleeps param microseconds)
//                seed:S    Bernoulli stream seed for prob (default 1)
//
// A trailing '*' in <site> prefix-matches ("io.*" arms every I/O site).
// Example: RNX_FAULT_SPEC="io.shard.bitflip=nth:2;serve.execute=prob:0.1"
//
// Injection sites (each documented at its call site):
//   io.atomic.write      binio: stream write fails before rename
//   io.atomic.rename     binio: rename over the target fails
//   io.shard.truncate    shards: short read of a shard file
//   io.shard.bitflip     shards: one bit flipped before checksum verify
//   io.manifest.bitflip  binio envelope reader: one bit flipped in a
//                        manifest body before checksum verify
//   source.producer      source: prefetch thread throws mid-stream
//   serve.execute        scheduler: whole-batch execution failure
//   serve.execute.slow   scheduler: sleep param microseconds per batch
//
// Zero-cost when disarmed: every site guards with fault_fires(), which
// is one relaxed atomic load when no spec is configured.  fire() itself
// takes a mutex (sites are I/O- or batch-granular, never per-sample hot
// loops) so hit counting is exact under concurrency — the producer-
// thread and scheduler sites fire from worker threads.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rnx::util {

/// What an armed site throws when the site has no better-typed error to
/// surface through (e.g. the streaming producer).  I/O sites instead
/// corrupt/fail the operation and let the NORMAL typed error path
/// (ShardChecksumError, ManifestError, ...) report it — chaos tests
/// verify the real detection machinery, not a parallel error world.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

class FaultInjector {
 public:
  /// The process-wide injector.  First use reads RNX_FAULT_SPEC (a bad
  /// env spec aborts with a descriptive message — a chaos run that
  /// silently ignores its spec would "pass" by testing nothing).
  static FaultInjector& instance();

  /// Replace the active spec.  Throws std::invalid_argument on grammar
  /// errors; an empty spec disarms (same as reset()).
  void configure(const std::string& spec);
  /// Disarm and drop all rules and counters.
  void reset();

  /// True when any rule is armed — the zero-cost fast path.
  [[nodiscard]] bool enabled() const noexcept;

  /// Count a hit at `site`; true when the matching rule fires.  Always
  /// false (and not counted) when disarmed.
  [[nodiscard]] bool fire(std::string_view site);

  /// fire(), then throw FaultInjectedError naming the site.
  void maybe_throw(std::string_view site);

  /// The param:U payload of the rule matching `site` (0 when none).
  [[nodiscard]] std::uint64_t param(std::string_view site) const;

  /// Hits / firings recorded against the rule matching `site` — lets
  /// sites derive deterministic corruption offsets and lets tests
  /// assert a sequence actually exercised its target.
  [[nodiscard]] std::uint64_t hits(std::string_view site) const;
  [[nodiscard]] std::uint64_t fired(std::string_view site) const;

 private:
  FaultInjector();
  struct Impl;
  Impl* impl_;  ///< leaked singleton state (never destroyed: sites may
                ///< fire during static teardown of user threads)
};

/// The guard every injection site uses:
///   if (fault_fires("io.shard.bitflip")) { ...corrupt... }
[[nodiscard]] inline bool fault_fires(std::string_view site) {
  FaultInjector& fi = FaultInjector::instance();
  return fi.enabled() && fi.fire(site);
}

}  // namespace rnx::util
