// Admin-plane test helpers shared by the server, router, crash-recovery,
// cluster and Prometheus suites: blocking HTTP/1.0 requests against an
// admin port, /statz number probes, and a text-exposition validator.

#ifndef OIJ_TESTS_ADMIN_HTTP_H_
#define OIJ_TESTS_ADMIN_HTTP_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "net/socket.h"

namespace oij {

/// One blocking HTTP/1.0 request; non-GET requests carry a
/// Content-Length body (the shape POST /queries and DELETE
/// /queries/<id> accept). Tolerates connection failure (the server may
/// be mid-restart) by returning "" with `*code` 0.
inline std::string HttpSend(uint16_t port, const std::string& method,
                            const std::string& path, const std::string& body,
                            int* code) {
  *code = 0;
  int fd = -1;
  if (!ConnectTcp("127.0.0.1", port, &fd).ok()) return "";
  std::string request = method + " " + path + " HTTP/1.0\r\n";
  if (method != "GET") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  if (!SendAll(fd, request.data(), request.size()).ok()) {
    CloseFd(fd);
    return "";
  }
  std::string response;
  char buf[8192];
  int64_t n;
  while ((n = RecvSome(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  CloseFd(fd);
  const size_t sp = response.find(' ');
  if (sp != std::string::npos) *code = std::atoi(response.c_str() + sp + 1);
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

inline std::string HttpGet(uint16_t port, const std::string& path, int* code,
                           const std::string& method = "GET") {
  return HttpSend(port, method, path, "", code);
}

/// Pulls the first `"key":<number>` out of a /statz body.
inline bool StatzNumber(const std::string& body, const std::string& key,
                        double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(body.c_str() + pos + needle.size(), nullptr);
  return true;
}

/// StatzNumber over a fresh GET /statz; `fallback` when unreachable.
inline double StatzNumberOr(uint16_t admin_port, const std::string& key,
                            double fallback) {
  int code = 0;
  const std::string body = HttpGet(admin_port, "/statz", &code);
  double v = fallback;
  if (code != 200 || !StatzNumber(body, key, &v)) return fallback;
  return v;
}

/// Checks a text-exposition document: every sample line is `name value`
/// or `name{labels} value` with a numeric value and a legal name, every
/// family has exactly one HELP and one TYPE line ahead of its samples,
/// and each family's lines form one contiguous group.
inline void ExpectValidExposition(const std::string& text) {
  std::map<std::string, int> helps, types;
  std::map<std::string, std::string> kinds;
  std::set<std::string> closed;
  std::string current;
  auto enter = [&](const std::string& family, const std::string& line) {
    if (family == current) return;
    EXPECT_EQ(closed.count(family), 0u)
        << "family " << family << " is not contiguous at: " << line;
    if (!current.empty()) closed.insert(current);
    current = family;
  };
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      std::istringstream words(line.substr(7));
      std::string family, type;
      words >> family >> type;
      if (line[2] == 'H') {
        ++helps[family];
      } else {
        ++types[family];
        kinds[family] = type;
      }
      enter(family, line);
      continue;
    }
    if (line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_NO_THROW((void)std::stod(value)) << line;
    std::string name = line.substr(0, space);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "bad metric name char in " << line;
    }
    std::string family = name;
    for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
      if (name.size() <= suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix)) {
        continue;
      }
      const std::string base = name.substr(0, name.size() - suffix.size());
      const auto it = kinds.find(base);
      if (it != kinds.end() && it->second == "histogram") family = base;
    }
    EXPECT_EQ(kinds.count(family), 1u) << "no TYPE before " << line;
    enter(family, line);
  }
  for (const auto& [family, n] : helps) {
    EXPECT_EQ(n, 1) << "HELP lines for " << family;
  }
  for (const auto& [family, n] : types) {
    EXPECT_EQ(n, 1) << "TYPE lines for " << family;
    EXPECT_EQ(helps.count(family), 1u) << "no HELP for " << family;
  }
}

}  // namespace oij

#endif  // OIJ_TESTS_ADMIN_HTTP_H_
