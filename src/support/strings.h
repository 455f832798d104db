// Small string helpers shared by the DSL parser, manifest serialiser and
// report formatting, plus the escapers every exposition format uses.
#ifndef TESLA_SUPPORT_STRINGS_H_
#define TESLA_SUPPORT_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace tesla {

std::vector<std::string_view> SplitString(std::string_view text, char separator);

std::string_view TrimWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view separator);

// Parses a signed 64-bit decimal (optionally 0x-prefixed hex) integer.
// Returns false on malformed input or overflow.
bool ParseInt64(std::string_view text, int64_t* out);

// printf-style append. One call renders at most 511 bytes; longer output is
// truncated (callers append unbounded text, like names, separately).
void AppendF(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

// Appends `s` as a quoted JSON string (quote, backslash and control
// characters escaped).
void AppendJsonString(std::string* out, const std::string& s);

// Appends `s` escaped as a Prometheus label value: backslash, double quote
// and newline.
void AppendPromLabel(std::string* out, const std::string& s);

}  // namespace tesla

#endif  // TESLA_SUPPORT_STRINGS_H_
