// flowio: conversion between flow directories (§3.4, Fig. 3) and FlowSpec.
//
// This is the contract shared by applications (which write match.* /
// action.* files and bump `version`) and drivers (which read the directory
// back into a FlowSpec once the version changes and push it to hardware).
// Absent match files are wildcards; absent action files mean the action is
// not part of the entry; an action.drop=1 overrides everything else.
//
// Actions have a canonical execution order (header rewrites before
// outputs), matching how OpenFlow 1.0 switches apply action lists:
//   set_vlan, strip_vlan, set_dl_*, set_nw_*, set_tp_*, enqueue, out.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "yanc/flow/flowspec.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::netfs {

/// Reads a committed flow directory into a FlowSpec (including `version`).
/// Lists the directory once and reads only the files the listing
/// contains, so the ~20 absent-field probes of a typically sparse flow
/// become set lookups (docs/PERFORMANCE.md "Batching").  A present but
/// empty field file reads as unset, like an absent one.
///
/// Apart from a field that fails to parse, errors come from the listing:
/// not_found for a deleted flow, and access_denied when `creds` may
/// traverse `flow_dir` but not list it (mode 0711 for another user),
/// even though each field file could be read by its full path.
Result<flow::FlowSpec> read_flow(vfs::Vfs& vfs, const std::string& flow_dir,
                                 const vfs::Credentials& creds = {});

/// Same as read_flow.  Kept only because the full-stack benchmark
/// (perfbench/src/common.cpp) calls it by this name.
Result<flow::FlowSpec> read_flow_sparse(vfs::Vfs& vfs,
                                        const std::string& flow_dir,
                                        const vfs::Credentials& creds = {});

/// Writes `spec` into `flow_dir`, creating the directory if needed,
/// removing match/action files the spec no longer carries, and — when
/// `commit` is true — incrementing the version file so drivers pick the
/// entry up atomically.
[[nodiscard]] Status write_flow(vfs::Vfs& vfs, const std::string& flow_dir,
                  const flow::FlowSpec& spec,
                  const vfs::Credentials& creds = {}, bool commit = true);

/// Increments the version file (the §3.4 commit protocol) and returns the
/// new version.
Result<std::uint64_t> commit_flow(vfs::Vfs& vfs, const std::string& flow_dir,
                                  const vfs::Credentials& creds = {});

/// Reads the flow's counters/ directory.
Result<flow::FlowStats> read_flow_stats(vfs::Vfs& vfs,
                                        const std::string& flow_dir,
                                        const vfs::Credentials& creds = {});

/// Writes the flow's counters/ directory (driver-side stats sync).
[[nodiscard]] Status write_flow_stats(vfs::Vfs& vfs, const std::string& flow_dir,
                        const flow::FlowStats& stats,
                        const vfs::Credentials& creds = {});

/// Follows the committed flows of one flows/ directory: the §3.4 commit
/// rule on the consumer side, for consumers that poll instead of
/// watching (the TEXT/1 driver, views).
class FlowFollower {
 public:
  using OnCommit =
      std::function<void(const std::string& name, const flow::FlowSpec& spec)>;
  using OnGone = std::function<void(const std::string& name)>;

  /// Lists `flows_dir` once.  Calls `on_commit` for every flow whose
  /// version is non-zero and newer than the one last reported, then
  /// `on_gone` for every reported flow no longer listed.  A directory
  /// that cannot be listed counts as empty.  Returns the callbacks made.
  std::size_t sync(vfs::Vfs& vfs, const std::string& flows_dir,
                   const OnCommit& on_commit, const OnGone& on_gone,
                   const vfs::Credentials& creds = {});

  /// True when every flow reported committed has been reported gone.
  bool empty() const noexcept { return versions_.empty(); }

 private:
  std::map<std::string, std::uint64_t> versions_;  // name -> last reported
};

}  // namespace yanc::netfs
