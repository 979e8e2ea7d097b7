// Typed runtime-configuration registry: the single home of every
// JITFD_* environment variable.
//
// Every knob the runtime reads from the environment is declared once in
// the table in env.cpp (name, type, default, documentation) and accessed
// through the typed getters here. The getters are strict: a set-but-
// malformed value is a hard error (std::invalid_argument naming the
// variable and the accepted form), never a silent fallback — a typo'd
// JITFD_MPI=digaonal must not quietly run the basic pattern.
//
// Call sites outside this module must not read JITFD_* variables with
// std::getenv (enforced by a repo-wide grep in CI, which also fails on
// a registered variable nothing reads); new knobs register here first,
// so `quickstart --env` and the README table (checked by
// Env.ReadmeTableMatchesRegistry) stay complete by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace jitfd::env {

/// One declared environment variable (the registry row).
struct Var {
  const char* name;  ///< "JITFD_TRANSPORT"
  const char* type;  ///< "bool"|"int"|"float"|"string"|"int-list"|"enum(..)"
  const char* def;   ///< Default, as documented ("threads", "1", "unset").
  const char* help;  ///< One-line description.
};

/// The full registry, sorted by name. This is the documented table that
/// `quickstart --env` renders and README.md mirrors.
const std::vector<Var>& vars();

/// Render the registry as an aligned text table, one row per variable,
/// with the live value (or "unset") appended.
std::string describe();

/// Whether `name` is set (possibly empty) in the environment. Throws
/// std::logic_error for names missing from the registry.
bool is_set(const char* name);

/// Raw value when set. Registry-checked like is_set().
std::optional<std::string> raw(const char* name);

/// Truthy parse: unset -> def; "" and "0" -> false; anything else ->
/// true (mirrors the historical JITFD_TRACE semantics).
bool get_bool(const char* name, bool def);

/// Integer parse; unset -> def; non-integer text -> hard error.
std::int64_t get_int(const char* name, std::int64_t def);

/// Floating-point parse; unset -> def; non-numeric text -> hard error.
double get_float(const char* name, double def);

/// String value; unset -> def. No validation beyond registry membership.
std::string get_string(const char* name, const std::string& def);

/// Validated choice: unset -> def; anything not in `allowed` is a hard
/// error listing the accepted values. Returns the matched string.
std::string get_enum(const char* name, const std::string& def,
                     const std::vector<std::string>& allowed);

/// Comma-separated integer list ("16,8,0"); unset -> empty. Empty
/// tokens mean 0 ("8,,2" -> {8,0,2}); non-numeric tokens are a hard
/// error. Used by JITFD_TILE (a 0 entry leaves that dimension untiled).
std::vector<std::int64_t> get_int_list(const char* name);

}  // namespace jitfd::env
