// The yanc file-system schema: the declarative description of the /net
// hierarchy from Figures 2 and 3 of the paper.
//
// Every directory in the yanc FS is an instance of an ObjectSpec:
//   net root      hosts/ switches/ views/ events/            (Fig. 2)
//   switch        counters/ flows/ ports/ actions capabilities id ... (Fig. 3)
//   flow          counters/ match.* action.* priority timeout version
//   port          counters/ hw_addr config.port_down peer -> ...
//   view          hosts/ switches/ views/ events/  (same spec as the root:
//                 views nest arbitrarily, §4.2)
//   event buffer  one per application; packet-in dirs appear inside (§3.5)
//
// The spec drives YancFs's semantic behaviour: mkdir in a collection
// auto-populates the object's children (§3.1), file writes are validated
// against the declared field type (match.nw_src takes CIDR, §3.4), rmdir
// on an object is automatically recursive (§3.2), and `peer` symlinks must
// point at ports (§3.3).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "yanc/util/result.hpp"

namespace yanc::netfs {

/// Value type of a typed file; writes are rejected unless they parse.
enum class FieldType : std::uint8_t {
  u64,      // decimal unsigned
  u16,      // decimal, <= 65535
  u8,       // decimal, <= 255
  flag,     // "0" or "1"
  hex64,    // hex with or without 0x
  hex16,    // hex, <= 0xffff (dl_type)
  mac,      // aa:bb:cc:dd:ee:ff
  ipv4,     // dotted quad
  cidr,     // dotted quad [/len]
  port_ref, // output port: number or controller|flood|all|in_port|local,
            // whitespace-separated list allowed (multi-output)
  enqueue,  // "port:queue"
  text,     // free-form single-line text
  blob,     // arbitrary bytes (packet payloads)
};

/// Validates `value` (as written to a file) against a field type.
[[nodiscard]] Status validate_field(FieldType type, std::string_view value);

struct FileSpec {
  const char* name;
  FieldType type;
  /// Content the file is created with at object creation; nullptr means
  /// the file is not auto-created (e.g. match.* — absence = wildcard).
  const char* default_value;
};

struct ObjectSpec;

/// A fixed child directory that always exists inside an object
/// (counters/, ports/, flows/, hosts/...).  Cannot be removed or renamed.
struct FixedDir {
  const char* name;
  const ObjectSpec* spec;
};

struct ObjectSpec {
  const char* type_name;
  std::vector<FileSpec> files;
  std::vector<FixedDir> fixed_dirs;
  /// Object type created by mkdir() directly inside this directory;
  /// nullptr forbids mkdir here.  (switches/ creates switch objects,
  /// an event buffer creates packet-in dirs, ...)
  const ObjectSpec* mkdir_child = nullptr;
  /// When true, create() may only make files named in `files`.
  bool strict_files = true;
  /// rmdir on an instance of this object removes its whole subtree (§3.2).
  bool recursive_rmdir = false;
  /// When true, mkdir of a dot-prefixed name is admitted as plain
  /// (schema-free) directory territory even though this spec would
  /// otherwise forbid or type the child.  The root sets it so runtime
  /// subtrees like /net/.cluster can live inside the replicated FS and
  /// replicate like any other node without appearing in the Fig. 2
  /// schema.
  bool allow_hidden = false;
  /// Symlink names permitted inside this object ("peer", "location").
  std::vector<const char*> symlinks;

  const FileSpec* find_file(std::string_view name) const;
  bool symlink_allowed(std::string_view name) const;
};

/// The spec of the yanc FS root — also the spec of every view (§4.2).
const ObjectSpec& root_spec();
const ObjectSpec& switch_spec();
const ObjectSpec& port_spec();
const ObjectSpec& flow_spec();
const ObjectSpec& host_spec();
const ObjectSpec& event_buffer_spec();
const ObjectSpec& packet_in_spec();

/// Canonical directory names (Fig. 2).
namespace paths {
inline constexpr const char* switches = "switches";
inline constexpr const char* hosts = "hosts";
inline constexpr const char* views = "views";
inline constexpr const char* events = "events";
inline constexpr const char* ports = "ports";
inline constexpr const char* flows = "flows";
inline constexpr const char* counters = "counters";
}  // namespace paths

}  // namespace yanc::netfs
