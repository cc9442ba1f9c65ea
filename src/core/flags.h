#ifndef LOSSYTS_CORE_FLAGS_H_
#define LOSSYTS_CORE_FLAGS_H_

#include <charconv>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/status.h"

namespace lossyts::flags {

/// Declarative command-line flags. A table of Flag entries binds each
/// spelling to a value placeholder, a help line and a typed destination;
/// Parse fills the destinations from the arguments and Usage renders the
/// help text from the same table, so the two cannot drift apart.

/// Splits a comma list, dropping empty items ("a,,b" -> {"a", "b"}).
std::vector<std::string> SplitList(std::string_view text);

/// The failure ParseValue returns for `text` that is not `kind`: OutOfRange
/// when `ec` says the value does not fit, InvalidArgument otherwise.
Status NumberError(std::string_view text, std::errc ec, const char* kind);

/// Parses all of `text` into `*out`: a string is copied, an integer or a
/// double must be the whole text with no sign the type cannot hold and no
/// trailing junk, and a std::vector of any of these takes a comma list.
/// Returns InvalidArgument for a malformed value and OutOfRange for one the
/// type cannot represent; `*out` is untouched on failure.
template <typename T>
Status ParseValue(std::string_view text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = std::string(text);
  } else if constexpr (requires { typename T::value_type; }) {
    T items;
    for (const std::string& item : SplitList(text)) {
      typename T::value_type value{};
      if (Status s = ParseValue(item, &value); !s.ok()) return s;
      items.push_back(std::move(value));
    }
    *out = std::move(items);
  } else {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    const char* const end = text.data() + text.size();
    T value{};
    const std::from_chars_result r =
        std::from_chars(text.data(), end, value);
    if (r.ec != std::errc() || r.ptr != end) {
      return NumberError(text, r.ec, std::is_floating_point_v<T> ? "a number"
                                     : std::is_signed_v<T> ? "an integer"
                                     : "a non-negative integer");
    }
    *out = value;
  }
  return Status::OK();
}

/// One flag: its spelling, the placeholder and help line the usage text
/// shows, and how many values it consumes and where they go. Build one
/// with Value or Switch, or spell out `set` for values no single
/// destination type describes (an enum spelling, a two-value range).
struct Flag {
  std::string name;         ///< "--jobs".
  std::string placeholder;  ///< "N"; empty for a switch.
  std::string help;
  size_t arity = 1;  ///< Values consumed after the spelling.
  std::function<Status(std::span<const std::string> values)> set;
};

/// A flag taking one value parsed by ParseValue into `*dest`.
template <typename T>
Flag Value(std::string name, std::string placeholder, std::string help,
           T* dest) {
  return {std::move(name), std::move(placeholder), std::move(help), 1,
          [dest](std::span<const std::string> v) {
            return ParseValue(v[0], dest);
          }};
}

/// A flag taking no value that stores `value` into `*dest`.
Flag Switch(std::string name, std::string help, bool* dest, bool value);

/// Parses `args` against `table`. A token that starts with "--" must be a
/// flag of the table and is followed by its values; every other token
/// ("-60" included) is appended to `*positional`, or rejected when
/// `positional` is null. Fails with a message naming the flag on an unknown
/// flag, a missing value or a value its destination rejects; destinations
/// set before the failing flag keep their new values.
Status Parse(const std::vector<Flag>& table,
             const std::vector<std::string>& args,
             std::vector<std::string>* positional);

/// Renders the table, one "--name placeholder  help" line per flag, each
/// indented by `indent` spaces and the help column aligned.
std::string Usage(const std::vector<Flag>& table, size_t indent);

}  // namespace lossyts::flags

#endif  // LOSSYTS_CORE_FLAGS_H_
