//===----------------------------------------------------------------------===//
//
// Helpers for the bench binaries that write a committed JSON record
// (BENCH_parse.json, BENCH_analysis_hotpath.json): thread CPU timing and
// merging one run into a record under a key, keeping the record's other
// members.
//
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_BENCH_BENCHRECORD_H
#define RUSTSIGHT_BENCH_BENCHRECORD_H

#include "support/File.h"
#include "support/Json.h"

#include <algorithm>
#include <ctime>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rs::bench {

/// CPU time of the calling thread, in milliseconds: time the thread spends
/// descheduled on a shared machine does not count.
inline double threadCpuMs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

/// Min over \p Reps rounds of \p Round, in milliseconds of CPU time.
template <typename Fn> double minCpuMs(unsigned Reps, Fn Round) {
  double Best = 1e100;
  for (unsigned R = 0; R != Reps; ++R) {
    double T0 = threadCpuMs();
    Round();
    Best = std::min(Best, threadCpuMs() - T0);
  }
  return Best;
}

inline void writeJsonValue(JsonWriter &W, const JsonValue &V) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    W.nullValue();
    return;
  case JsonValue::Kind::Bool:
    W.value(V.asBool());
    return;
  case JsonValue::Kind::Int:
    W.value(V.asInt());
    return;
  case JsonValue::Kind::Double:
    W.value(V.asDouble());
    return;
  case JsonValue::Kind::String:
    W.value(V.asString());
    return;
  case JsonValue::Kind::Array:
    W.beginArray();
    for (const JsonValue &E : V.elements())
      writeJsonValue(W, E);
    W.endArray();
    return;
  case JsonValue::Kind::Object:
    W.beginObject();
    for (const auto &[K, M] : V.members()) {
      W.key(K);
      writeJsonValue(W, M);
    }
    W.endObject();
    return;
  }
}

/// The record in \p Path with each (key, JSON text) member of \p Runs
/// replacing the member of that name, or appended when it is new. Members
/// the runs do not name keep their value and order.
inline std::string
mergeRecord(const std::string &Path,
            const std::vector<std::pair<std::string, std::string>> &Runs) {
  std::string Old;
  std::optional<JsonValue> Doc;
  if (readFile(Path, Old) == ReadFileError::None)
    Doc = JsonValue::parse(Old);
  std::vector<bool> Written(Runs.size(), false);
  auto RunFor = [&](const std::string &K) -> int {
    for (size_t I = 0; I != Runs.size(); ++I)
      if (Runs[I].first == K)
        return static_cast<int>(I);
    return -1;
  };
  JsonWriter W;
  W.beginObject();
  if (Doc && Doc->isObject())
    for (const auto &[K, M] : Doc->members()) {
      W.key(K);
      int I = RunFor(K);
      if (I < 0) {
        writeJsonValue(W, M);
        continue;
      }
      writeJsonValue(W, *JsonValue::parse(Runs[I].second));
      Written[I] = true;
    }
  for (size_t I = 0; I != Runs.size(); ++I) {
    if (Written[I])
      continue;
    W.key(Runs[I].first);
    writeJsonValue(W, *JsonValue::parse(Runs[I].second));
  }
  W.endObject();
  return W.str() + "\n";
}

} // namespace rs::bench

#endif // RUSTSIGHT_BENCH_BENCHRECORD_H
