#include "engine/Checkpoint.h"

#include "corpus/CorpusWalk.h"
#include "support/File.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <filesystem>

namespace fs = std::filesystem;

using namespace rs;
using namespace rs::engine;

uint64_t
rs::engine::fingerprintCorpus(const std::vector<corpus::CorpusInput> &Inputs) {
  uint64_t H = fnv1a64("rustsight-corpus");
  for (const corpus::CorpusInput &In : Inputs) {
    H = fnv1a64(In.Path, H);
    H = fnv1a64("\x1f", H);
    H = fnv1a64(In.SkipReason, H);
    H = fnv1a64("\x1e", H);
  }
  return H;
}

bool CheckpointJournal::load(
    const RunKey &Key, const std::vector<corpus::CorpusInput> &Inputs,
    std::vector<std::optional<FileReport>> &Out) const {
  std::string Text;
  if (Out.size() != Inputs.size() ||
      readFile(Path, Text) != ReadFileError::None)
    return false;

  std::optional<JsonValue> Doc = JsonValue::parse(Text);
  if (!Doc || !Doc->isObject())
    return false;
  if (Doc->getInt("version", -1) != FormatVersion)
    return false;
  uint64_t Corpus = 0, Salt = 0;
  if (!hexToHash(Doc->getString("corpus"), Corpus) ||
      Corpus != Key.CorpusFingerprint)
    return false;
  if (!hexToHash(Doc->getString("salt"), Salt) || Salt != Key.Salt)
    return false;
  const JsonValue *Files = Doc->get("files");
  if (!Files || !Files->isArray())
    return false;

  // Stage into a scratch vector so a defect halfway through leaves the
  // caller's state untouched.
  std::vector<std::optional<FileReport>> Staged(Out.size());
  for (const JsonValue &Entry : Files->elements()) {
    if (!Entry.isObject())
      return false;
    int64_t Ordinal = Entry.getInt("ordinal", -1);
    const JsonValue *Report = Entry.get("report");
    if (Ordinal < 0 || !Report || !Report->isString())
      return false;
    if (static_cast<size_t>(Ordinal) >= Staged.size())
      continue; // Corpus shrank out from under the key check; ignore.
    std::string Payload;
    if (!hexToBytes(Report->asString(), Payload))
      return false;
    std::optional<FileReport> R =
        deserializeFileReport(Payload, Inputs[size_t(Ordinal)].Path);
    if (!R)
      return false;
    Staged[static_cast<size_t>(Ordinal)] = std::move(*R);
  }
  for (size_t I = 0; I != Staged.size(); ++I)
    if (Staged[I])
      Out[I] = std::move(Staged[I]);
  return true;
}

bool CheckpointJournal::write(
    const RunKey &Key,
    const std::vector<std::optional<FileReport>> &Results) const {
  JsonWriter W;
  W.beginObject();
  W.field("version", FormatVersion);
  W.field("corpus", hashToHex(Key.CorpusFingerprint));
  W.field("salt", hashToHex(Key.Salt));
  W.key("files");
  W.beginArray();
  std::string Body = W.str();
  bool First = true;
  for (size_t I = 0; I != Results.size(); ++I) {
    if (!Results[I])
      continue;
    if (!First)
      Body += ',';
    First = false;
    Body += "{\"ordinal\":" + std::to_string(I) + ",\"report\":\"" +
            bytesToHex(serializeFileReport(*Results[I])) + "\"}";
  }
  Body += "]}";

  return writeFileAtomic(Path, Body);
}

void CheckpointJournal::remove() const {
  std::error_code Ec;
  fs::remove(fs::path(Path), Ec);
}
