#ifndef COBRA_BASE_STRINGS_H_
#define COBRA_BASE_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace cobra {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view s);

/// ASCII upper-casing (the text recognizer and query language are
/// case-insensitive over A–Z).
std::string ToUpperAscii(std::string_view s);
std::string ToLowerAscii(std::string_view s);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Joins pieces with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// Appends `s` as a quoted JSON string literal: `"` and `\` are escaped,
/// \n \r \t get their short forms, other control bytes become \u00XX, and
/// every other byte (UTF-8 included) is copied through.
void AppendJsonString(std::string_view s, std::string* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace cobra

#endif  // COBRA_BASE_STRINGS_H_
