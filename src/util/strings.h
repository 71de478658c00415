#ifndef OTIF_UTIL_STRINGS_H_
#define OTIF_UTIL_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace otif {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Strict decimal integer parse: all of `text` must be an optionally signed
/// run of digits that fits in int64_t. No whitespace and no trailing
/// characters, so "4x" fails where atoi would read 4. Leaves `out` alone on
/// failure.
bool ParseInt64(std::string_view text, int64_t* out);

/// Strict parse of a finite double: all of `text` must be consumed (no
/// whitespace), and NaN, infinities and values out of double's range fail.
/// Leaves `out` alone on failure.
bool ParseDouble(std::string_view text, double* out);

}  // namespace otif

#endif  // OTIF_UTIL_STRINGS_H_
