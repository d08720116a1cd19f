// The flags each `spatl` subcommand accepts. The CLI rejects any other flag
// with an `error: unknown flag --NAME` line, so a misspelt flag (say
// --input-size for --input) fails loudly instead of silently running with
// the default. tests/test_cli.cpp checks these lists against the flags each
// subcommand reads.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace spatl::cli {

/// Accepted flag names (without the leading --) per subcommand.
inline const std::map<std::string, std::vector<std::string>>&
subcommand_flags() {
  static const std::map<std::string, std::vector<std::string>> kFlags = {
      {"train",
       {// run shape and model
        "algo", "arch", "input", "width", "clients", "rounds", "beta",
        "sample-ratio", "epochs", "lr", "seed", "budget", "topk", "out",
        "backend",
        // fault injection and resilience
        "fault-dropout", "fault-straggler", "fault-corruption",
        "fault-corruption-kind", "fault-loss", "fault-seed",
        "fault-deadline", "max-retries", "quorum", "max-update-norm",
        "stale-weight", "retry-backoff", "retry-backoff-factor",
        "retry-backoff-max", "retry-jitter",
        // semi-async commit and escalation
        "async", "async-stale-weight", "async-max-lag", "escalate",
        "escalate-threshold", "escalate-patience", "escalate-aggregator",
        "escalate-reset-after",
        // membership, admission and failover
        "churn-join", "churn-leave", "churn-return", "churn-initial",
        "churn-stale-weight", "churn-staleness-cap", "churn-seed",
        "admit-max-participants", "admit-max-uplink-bytes", "admit-policy",
        "crash-at", "alert-reject-rate", "alert-shed-rate",
        // Byzantine attacks and robust aggregation
        "byz-fraction", "byz-attack", "byz-scale", "byz-noise", "aggregator",
        "trim-fraction", "krum-f", "multi-krum", "clip-norm", "krum-auto-f",
        // recovery and sampling
        "checkpoint-every", "checkpoint-path", "ckpt-dir", "ckpt-keep",
        "ckpt-verify", "no-store-resume", "resume", "divergence-factor",
        "fault-aware-sampling", "fault-ema-decay",
        // telemetry
        "metrics-out", "telemetry-every", "trace-out", "flight-window"}},
      {"evaluate",
       {"ckpt", "arch", "input", "width", "samples", "seed", "backend"}},
      {"prune",
       {"arch", "input", "width", "budget", "epochs", "rl-rounds", "seed",
        "backend"}},
      {"info", {"arch", "input", "width", "backend"}},
  };
  return kFlags;
}

}  // namespace spatl::cli
