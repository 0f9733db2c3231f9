//===----------------------------------------------------------------------===//
//
// End-to-end serve daemon tests, driven in-process through the IO-agnostic
// Server. They pin the acceptance contracts of the resident session:
//
//  - initialize reports name/version/schema/rule-count from the one shared
//    rs::version constant;
//  - didChange publishes diagnostics whose rule IDs match the batch
//    pipeline's findings;
//  - a warm edit re-analyzes only the dirty file plus the files whose
//    link digest moved, visible through the session's
//    epoch/analysis/revalidation counters;
//  - the session snapshot renders byte-identically to a cold
//    `rustsight check --json` over the same buffer state, cross-file
//    findings included, under the same whole-program mode;
//  - fix-its surface as quickfix code actions, deferred requests are
//    cancellable with RequestCancelled, and the shutdown/exit lifecycle
//    follows the LSP exit-code contract.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "diag/Version.h"
#include "engine/Engine.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::serve;

namespace {

const char *LibSrc = "fn helper() -> i32 {\n"
                     "    bb0: {\n"
                     "        _0 = const 1;\n"
                     "        return;\n"
                     "    }\n"
                     "}\n";

const char *LibSrcV2 = "fn helper() -> i32 {\n"
                       "    bb0: {\n"
                       "        _0 = const 2;\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

const char *CallerSrc = "fn caller() -> i32 {\n"
                        "    let _1: i32;\n"
                        "    bb0: {\n"
                        "        _1 = helper() -> bb1;\n"
                        "    }\n"
                        "    bb1: {\n"
                        "        _0 = copy _1;\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";

const char *OtherSrc = "fn unrelated() -> i32 {\n"
                       "    bb0: {\n"
                       "        _0 = const 9;\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

const char *DoubleLockSrc = "fn twice(_1: &Mutex<i32>) -> i32 {\n"
                            "    let mut _2: MutexGuard<i32>;\n"
                            "    let mut _3: MutexGuard<i32>;\n"
                            "    bb0: {\n"
                            "        StorageLive(_2);\n"
                            "        _2 = Mutex::lock(copy _1) -> bb1;\n"
                            "    }\n"
                            "    bb1: {\n"
                            "        StorageLive(_3);\n"
                            "        _3 = Mutex::lock(copy _1) -> bb2;\n"
                            "    }\n"
                            "    bb2: {\n"
                            "        _0 = copy (*_2);\n"
                            "        StorageDead(_3);\n"
                            "        StorageDead(_2);\n"
                            "        return;\n"
                            "    }\n"
                            "}\n";

std::string jsonStr(const std::string &S) {
  JsonWriter W;
  W.value(S);
  return W.str();
}

fs::path writeCorpus(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::ofstream(Dir / "caller.mir") << CallerSrc;
  std::ofstream(Dir / "lib.mir") << LibSrc;
  std::ofstream(Dir / "other.mir") << OtherSrc;
  return Dir;
}

/// Drives the IO-agnostic Server the way the stdio loop would, with parsed
/// JSON access to everything it sends back.
struct Harness {
  Server S;

  explicit Harness(
      const fs::path &Root, unsigned Jobs = 1,
      engine::WholeProgramMode Mode = engine::WholeProgramMode::Auto)
      : S(makeOptions(Root, Jobs, Mode)) {}

  static ServerOptions makeOptions(const fs::path &Root, unsigned Jobs,
                                   engine::WholeProgramMode Mode) {
    ServerOptions O;
    O.Session.Engine.Jobs = Jobs;
    O.Session.Engine.WholeProgram = Mode;
    if (!Root.empty())
      O.Session.Roots.push_back(Root.string());
    return O;
  }

  std::vector<JsonValue> drain() {
    std::vector<JsonValue> Out;
    for (const std::string &P : S.takeOutgoing()) {
      std::optional<JsonValue> V = JsonValue::parse(P);
      EXPECT_TRUE(V.has_value()) << "unparseable outbound payload: " << P;
      if (V)
        Out.push_back(std::move(*V));
    }
    return Out;
  }

  void request(int Id, const std::string &Method, const std::string &Params) {
    S.handleMessage("{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(Id) +
                    ",\"method\":" + jsonStr(Method) +
                    ",\"params\":" + Params + "}");
  }

  void notify(const std::string &Method, const std::string &Params) {
    S.handleMessage("{\"jsonrpc\":\"2.0\",\"method\":" + jsonStr(Method) +
                    ",\"params\":" + Params + "}");
  }

  /// initialize + initialized; returns everything sent in response.
  std::vector<JsonValue> start() {
    request(1, "initialize", "{}");
    notify("initialized", "{}");
    return drain();
  }

  void didOpen(const std::string &Path, const std::string &Text,
               int64_t Version = 1) {
    notify("textDocument/didOpen",
           "{\"textDocument\":{\"uri\":" + jsonStr(pathToUri(Path)) +
               ",\"languageId\":\"rustlite-mir\",\"version\":" +
               std::to_string(Version) + ",\"text\":" + jsonStr(Text) + "}}");
  }

  void didChange(const std::string &Path, const std::string &Text,
                 int64_t Version) {
    notify("textDocument/didChange",
           "{\"textDocument\":{\"uri\":" + jsonStr(pathToUri(Path)) +
               ",\"version\":" + std::to_string(Version) +
               "},\"contentChanges\":[{\"text\":" + jsonStr(Text) + "}]}");
  }

  void didClose(const std::string &Path) {
    notify("textDocument/didClose",
           "{\"textDocument\":{\"uri\":" + jsonStr(pathToUri(Path)) + "}}");
  }

  void codeAction(int Id, const std::string &Path, int64_t EndLine = 1000) {
    request(Id, "textDocument/codeAction",
            "{\"textDocument\":{\"uri\":" + jsonStr(pathToUri(Path)) +
                "},\"range\":{\"start\":{\"line\":0,\"character\":0},"
                "\"end\":{\"line\":" + std::to_string(EndLine) +
                ",\"character\":0}},\"context\":{\"diagnostics\":[]}}");
  }
};

/// The response carrying \p Id, or nullptr.
const JsonValue *findResponse(const std::vector<JsonValue> &Ms, int64_t Id) {
  for (const JsonValue &M : Ms)
    if (const JsonValue *IdV = M.get("id"))
      if (IdV->isInt() && IdV->asInt() == Id)
        return &M;
  return nullptr;
}

/// The last publishDiagnostics for \p Path, or nullptr.
const JsonValue *lastPublishFor(const std::vector<JsonValue> &Ms,
                                const std::string &Path) {
  const JsonValue *Found = nullptr;
  std::string Uri = pathToUri(Path);
  for (const JsonValue &M : Ms)
    if (M.getString("method") == "textDocument/publishDiagnostics")
      if (const JsonValue *P = M.get("params"))
        if (P->getString("uri") == Uri)
          Found = &M;
  return Found;
}

/// A fresh directory holding the 12 cross-file files of the eval corpus.
fs::path copyXfileCorpus(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  for (const fs::directory_entry &E : fs::directory_iterator(
           fs::path(RS_REPO_ROOT) / "examples" / "mir" / "eval"))
    if (E.path().filename().string().rfind("xfile_", 0) == 0)
      fs::copy_file(E.path(), Dir / E.path().filename());
  return Dir;
}

std::string readText(const fs::path &P) {
  std::ifstream In(P);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// What a cold `rustsight check --json` reports over \p Dir.
std::string coldCheckJson(
    const fs::path &Dir,
    engine::WholeProgramMode Mode = engine::WholeProgramMode::Auto) {
  engine::EngineOptions EO;
  EO.Jobs = 1;
  EO.WholeProgram = Mode;
  engine::AnalysisEngine Cold(EO);
  return Cold.analyzeCorpus({Dir.string()}).renderJson();
}

std::vector<std::string> diagCodes(const JsonValue &Publish) {
  std::vector<std::string> Codes;
  if (const JsonValue *P = Publish.get("params"))
    if (const JsonValue *Ds = P->get("diagnostics"))
      for (const JsonValue &D : Ds->elements())
        Codes.push_back(std::string(D.getString("code")));
  return Codes;
}

} // namespace

TEST(Serve, InitializeReportsSharedVersionConstants) {
  fs::path Dir = writeCorpus("serve_init");
  Harness H(Dir);
  H.request(1, "initialize", "{}");
  std::vector<JsonValue> Ms = H.drain();
  const JsonValue *R = findResponse(Ms, 1);
  ASSERT_NE(R, nullptr);
  const JsonValue *Result = R->get("result");
  ASSERT_NE(Result, nullptr);

  const JsonValue *Caps = Result->get("capabilities");
  ASSERT_NE(Caps, nullptr);
  EXPECT_EQ(Caps->getInt("textDocumentSync"), 1);
  EXPECT_TRUE(Caps->getBool("codeActionProvider"));

  const JsonValue *Info = Result->get("serverInfo");
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->getString("name"), version::ToolName);
  EXPECT_EQ(Info->getString("version"), version::ToolVersion);
  EXPECT_EQ(Info->getInt("schemaVersion"),
            static_cast<int64_t>(version::ReportSchemaVersion));
  EXPECT_EQ(Info->getInt("ruleCount"),
            static_cast<int64_t>(version::ruleCount()));
}

TEST(Serve, RequestsBeforeInitializeAreRejected) {
  Harness H{fs::path()};
  H.codeAction(9, "/nowhere.mir");
  std::vector<JsonValue> Ms = H.drain();
  const JsonValue *R = findResponse(Ms, 9);
  ASSERT_NE(R, nullptr);
  ASSERT_NE(R->get("error"), nullptr);
  EXPECT_EQ(R->get("error")->getInt("code"), ServerNotInitialized);
}

TEST(Serve, InitializedPublishesDiagnosticsForTheWholeCorpus) {
  fs::path Dir = writeCorpus("serve_initial_publish");
  Harness H(Dir);
  std::vector<JsonValue> Ms = H.start();
  for (const char *Name : {"caller.mir", "lib.mir", "other.mir"}) {
    const JsonValue *Pub = lastPublishFor(Ms, (Dir / Name).string());
    ASSERT_NE(Pub, nullptr) << "no publishDiagnostics for " << Name;
    EXPECT_TRUE(diagCodes(*Pub).empty()) << Name << " is clean";
  }
}

TEST(Serve, DidChangePublishesInjectedDoubleLock) {
  fs::path Dir = writeCorpus("serve_didchange");
  std::string Caller = (Dir / "caller.mir").string();
  Harness H(Dir);
  H.start();

  H.didOpen(Caller, CallerSrc, 1);
  H.didChange(Caller, DoubleLockSrc, 2);
  EXPECT_TRUE(H.S.hasPendingWork());
  EXPECT_TRUE(H.S.flushPending());

  std::vector<JsonValue> Ms = H.drain();
  const JsonValue *Pub = lastPublishFor(Ms, Caller);
  ASSERT_NE(Pub, nullptr);
  EXPECT_EQ(Pub->get("params")->getInt("version"), 2)
      << "publish must carry the overlay version it analyzed";
  std::vector<std::string> Codes = diagCodes(*Pub);
  ASSERT_EQ(Codes.size(), 1u);
  EXPECT_EQ(Codes[0], "RS-DL-001");

  // The diagnostic carries an LSP range anchored on the second lock line
  // (0-based line 9) and the extension data payload.
  const JsonValue &D = Pub->get("params")->get("diagnostics")->elements()[0];
  ASSERT_NE(D.get("range"), nullptr);
  EXPECT_EQ(D.get("range")->get("start")->getInt("line"), 9);
  EXPECT_EQ(D.getInt("severity"), 1);
  EXPECT_EQ(D.getString("source"), "rustsight");
  ASSERT_NE(D.get("data"), nullptr);
  EXPECT_FALSE(D.get("data")->getString("fingerprint").empty());
}

TEST(Serve, WarmEditReanalyzesOnlyTheDirtySlice) {
  fs::path Dir = writeCorpus("serve_incremental");
  std::string Lib = (Dir / "lib.mir").string();
  std::string Caller = (Dir / "caller.mir").string();
  std::string Other = (Dir / "other.mir").string();
  Harness H(Dir);
  H.start();

  // caller.mir calls helper(), which lib.mir defines, so only the caller
  // has a non-zero link digest: the cold start analyzes the other files
  // against the empty environment and the caller, which calls out of its
  // file, once, after the link, against the link's.
  Session &Sess = H.S.session();
  ASSERT_EQ(Sess.totalAnalyses(), 3u);
  EXPECT_EQ(Sess.fileStats(Lib).Analyses, 1u);
  EXPECT_EQ(Sess.fileStats(Caller).Analyses, 1u);
  EXPECT_EQ(Sess.fileStats(Other).Analyses, 1u);

  // Opening lib with its on-disk bytes is a revalidation. lib exports
  // helper, so the session relinks, but no digest moves: the caller is
  // not visited.
  H.didOpen(Lib, LibSrc, 1);
  H.S.flushPending();
  std::vector<JsonValue> Ms = H.drain();
  EXPECT_NE(lastPublishFor(Ms, Lib), nullptr);
  EXPECT_EQ(lastPublishFor(Ms, Caller), nullptr);
  EXPECT_EQ(Sess.fileStats(Lib).Analyses, 1u);
  EXPECT_EQ(Sess.fileStats(Lib).Revalidations, 1u);
  EXPECT_EQ(Sess.fileStats(Caller).Epoch, 1u);
  EXPECT_EQ(Sess.totalAnalyses(), 3u) << "no bytes changed, no engine runs";

  // A body-only edit of the callee moves helper's link key and so the
  // caller's digest: the dirty file and the caller re-analyze (both cache
  // misses) and republish; the unrelated file is not visited at all.
  H.didChange(Lib, LibSrcV2, 2);
  ASSERT_TRUE(H.S.flushPending());
  Ms = H.drain();
  EXPECT_NE(lastPublishFor(Ms, Lib), nullptr);
  EXPECT_NE(lastPublishFor(Ms, Caller), nullptr);
  EXPECT_EQ(lastPublishFor(Ms, Other), nullptr);

  EXPECT_EQ(Sess.fileStats(Lib).Analyses, 2u);
  EXPECT_EQ(Sess.fileStats(Lib).Epoch, 3u);
  EXPECT_EQ(Sess.fileStats(Caller).Analyses, 2u);
  EXPECT_EQ(Sess.fileStats(Caller).Epoch, 2u);
  EXPECT_EQ(Sess.fileStats(Other).Epoch, 1u);
  EXPECT_EQ(Sess.totalAnalyses(), 5u);

  // An edit that touches no cross-file edge stays per-file: only the
  // edited file is analyzed and published.
  H.didOpen(Other, OtherSrc, 1);
  H.didChange(Other, DoubleLockSrc, 2);
  ASSERT_TRUE(H.S.flushPending());
  Ms = H.drain();
  EXPECT_NE(lastPublishFor(Ms, Other), nullptr);
  EXPECT_EQ(lastPublishFor(Ms, Lib), nullptr);
  EXPECT_EQ(lastPublishFor(Ms, Caller), nullptr);
  EXPECT_EQ(Sess.fileStats(Caller).Epoch, 2u);
  EXPECT_EQ(Sess.totalAnalyses(), 6u);
}

TEST(Serve, XfileSnapshotMatchesColdCheckAcrossACalleeEdit) {
  fs::path Dir = copyXfileCorpus("serve_xfile");
  fs::path Def = Dir / "xfile_uaf_bug_0_def.mir";
  fs::path Use = Dir / "xfile_uaf_bug_0_use.mir";
  Harness H(Dir);
  std::vector<JsonValue> Ms = H.start();

  // The initial sweep carries the cross-file findings check reports.
  engine::CorpusReport Snap = H.S.session().snapshot();
  EXPECT_EQ(Snap.totalFindings(), 3u) << Snap.renderText();
  EXPECT_EQ(Snap.renderJson(), coldCheckJson(Dir));
  const JsonValue *Pub = lastPublishFor(Ms, Use.string());
  ASSERT_NE(Pub, nullptr);
  EXPECT_EQ(diagCodes(*Pub), std::vector<std::string>{"RS-UAF-001"});

  // Rewrite the callee with the benign body, renamed so the call still
  // resolves: the caller republishes without its finding.
  std::string Benign = readText(Dir / "xfile_uaf_ok_0_def.mir");
  Benign.replace(Benign.find("xf_free_ok_0"), 12, "xf_free_bug_0");
  H.didOpen(Def.string(), readText(Def), 1);
  H.didChange(Def.string(), Benign, 2);
  ASSERT_TRUE(H.S.flushPending());
  Ms = H.drain();
  Pub = lastPublishFor(Ms, Use.string());
  ASSERT_NE(Pub, nullptr);
  EXPECT_TRUE(diagCodes(*Pub).empty());

  std::ofstream(Def) << Benign;
  Snap = H.S.session().snapshot();
  EXPECT_EQ(Snap.totalFindings(), 2u) << Snap.renderText();
  EXPECT_EQ(Snap.renderJson(), coldCheckJson(Dir));
}

TEST(Serve, DefiningAnUnresolvedCalleeRepublishesTheCaller) {
  fs::path Dir = copyXfileCorpus("serve_xfile_define");
  fs::path Def = Dir / "xfile_uaf_bug_0_def.mir";
  fs::path Use = Dir / "xfile_uaf_bug_0_use.mir";
  std::string Callee = readText(Def);
  // Start with the callee's definition renamed away: the caller's call is
  // unresolved, so it has no finding.
  std::string Renamed = Callee;
  Renamed.replace(Renamed.find("xf_free_bug_0"), 13, "xf_free_gone_0");
  std::ofstream(Def) << Renamed;
  Harness H(Dir);
  std::vector<JsonValue> Ms = H.start();
  const JsonValue *Pub = lastPublishFor(Ms, Use.string());
  ASSERT_NE(Pub, nullptr);
  EXPECT_TRUE(diagCodes(*Pub).empty());

  // The edit defines the name the caller calls: the session relinks and
  // the caller republishes with the cross-file finding.
  H.didOpen(Def.string(), Renamed, 1);
  H.didChange(Def.string(), Callee, 2);
  ASSERT_TRUE(H.S.flushPending());
  Ms = H.drain();
  Pub = lastPublishFor(Ms, Use.string());
  ASSERT_NE(Pub, nullptr);
  EXPECT_EQ(diagCodes(*Pub), std::vector<std::string>{"RS-UAF-001"});

  std::ofstream(Def) << Callee;
  EXPECT_EQ(H.S.session().snapshot().renderJson(), coldCheckJson(Dir));
}

TEST(Serve, EvalSnapshotMatchesColdCheckInEitherLinkMode) {
  // The session links exactly when check does: --no-whole-program loses
  // the three cross-file findings of the xfile pairs, in both.
  fs::path Eval = fs::path(RS_REPO_ROOT) / "examples" / "mir" / "eval";
  auto XfileFindings = [](const engine::CorpusReport &R) {
    size_t N = 0;
    for (const engine::FileReport &F : R.Files)
      if (F.Path.find("xfile_") != std::string::npos)
        N += F.Findings.size();
    return N;
  };
  for (engine::WholeProgramMode Mode :
       {engine::WholeProgramMode::Auto, engine::WholeProgramMode::Off}) {
    Harness H(Eval, 1, Mode);
    H.start();
    engine::CorpusReport Snap = H.S.session().snapshot();
    EXPECT_EQ(XfileFindings(Snap),
              Mode == engine::WholeProgramMode::Off ? 0u : 3u);
    EXPECT_EQ(Snap.renderJson(), coldCheckJson(Eval, Mode));
  }
}

TEST(Serve, SnapshotRendersByteIdenticalToColdCheckJson) {
  fs::path Dir = writeCorpus("serve_bytematch");
  std::string Caller = (Dir / "caller.mir").string();
  Harness H(Dir);
  H.start();

  // Edit through the overlay: the daemon's state diverges from disk.
  H.didOpen(Caller, CallerSrc, 1);
  H.didChange(Caller, DoubleLockSrc, 2);
  H.S.flushPending();
  H.drain();

  // Bring disk to the daemon's buffer state and run the one-shot pipeline
  // a cold `rustsight check --json` would: same files, fresh engine.
  std::ofstream(Caller) << DoubleLockSrc;
  engine::EngineOptions EO;
  EO.Jobs = 1;
  engine::AnalysisEngine Cold(EO);
  engine::CorpusReport ColdReport = Cold.analyzeCorpus({Dir.string()});

  EXPECT_EQ(H.S.session().snapshot().renderJson(), ColdReport.renderJson());
}

TEST(Serve, FixItsSurfaceAsQuickfixCodeActions) {
  fs::path Dir = writeCorpus("serve_codeaction");
  Harness H(Dir);
  H.start();

  // An unknown rule in a rustsight-allow comment produces an RS-META-001
  // notice carrying a machine-applicable fix-it (drop the bogus rule).
  std::string Scratch = (Dir / "scratch.mir").string();
  std::string Src = std::string("// rustsight-allow(bogus-rule)\n") + LibSrc;
  H.didOpen(Scratch, Src, 1);
  H.S.flushPending();
  std::vector<JsonValue> Published = H.drain();
  const JsonValue *Pub = lastPublishFor(Published, Scratch);
  ASSERT_NE(Pub, nullptr);
  ASSERT_FALSE(diagCodes(*Pub).empty());

  H.codeAction(40, Scratch);
  std::vector<JsonValue> Ms = H.drain();
  const JsonValue *R = findResponse(Ms, 40);
  ASSERT_NE(R, nullptr);
  const JsonValue *Actions = R->get("result");
  ASSERT_NE(Actions, nullptr);
  ASSERT_FALSE(Actions->elements().empty());
  const JsonValue &A = Actions->elements()[0];
  EXPECT_EQ(A.getString("kind"), "quickfix");
  EXPECT_FALSE(A.getString("title").empty());
  const JsonValue *Changes = A.get("edit")->get("changes");
  ASSERT_NE(Changes, nullptr);
  const JsonValue *Edits = Changes->get(pathToUri(Scratch));
  ASSERT_NE(Edits, nullptr);
  ASSERT_EQ(Edits->elements().size(), 1u);
  const JsonValue &E = Edits->elements()[0];
  // Line-granular fix on the comment line: replace [0,0)..[1,0).
  EXPECT_EQ(E.get("range")->get("start")->getInt("line"), 0);
  EXPECT_EQ(E.get("range")->get("end")->getInt("line"), 1);
  std::string NewText(E.getString("newText"));
  ASSERT_FALSE(NewText.empty());
  EXPECT_EQ(NewText.back(), '\n');
  EXPECT_EQ(NewText.find("bogus-rule"), std::string::npos);
}

TEST(Serve, DeferredCodeActionIsCancellable) {
  fs::path Dir = writeCorpus("serve_cancel");
  std::string Caller = (Dir / "caller.mir").string();
  Harness H(Dir);
  H.start();

  H.didOpen(Caller, CallerSrc, 1);
  H.didChange(Caller, DoubleLockSrc, 2);
  H.codeAction(70, Caller); // Queued behind the pending re-analysis.
  std::vector<JsonValue> Ms = H.drain();
  EXPECT_EQ(findResponse(Ms, 70), nullptr) << "must defer while dirty";

  H.notify("$/cancelRequest", "{\"id\":70}");
  Ms = H.drain();
  const JsonValue *R = findResponse(Ms, 70);
  ASSERT_NE(R, nullptr);
  ASSERT_NE(R->get("error"), nullptr);
  EXPECT_EQ(R->get("error")->getInt("code"), RequestCancelled);

  // The flush must not answer the cancelled request a second time.
  H.S.flushPending();
  EXPECT_EQ(findResponse(H.drain(), 70), nullptr);

  // A deferred request that is NOT cancelled is answered by the flush,
  // against post-edit state.
  H.didChange(Caller, CallerSrc, 3);
  H.codeAction(71, Caller);
  EXPECT_EQ(findResponse(H.drain(), 71), nullptr);
  H.S.flushPending();
  Ms = H.drain();
  const JsonValue *R2 = findResponse(Ms, 71);
  ASSERT_NE(R2, nullptr);
  EXPECT_NE(R2->get("result"), nullptr);
}

TEST(Serve, ClosingAScratchDocumentClearsItsDiagnostics) {
  fs::path Dir = writeCorpus("serve_didclose");
  Harness H(Dir);
  H.start();

  std::string Scratch = "untitled:Untitled-1";
  H.didOpen(Scratch, DoubleLockSrc, 1);
  H.S.flushPending();
  std::vector<JsonValue> Ms = H.drain();
  const JsonValue *Pub = lastPublishFor(Ms, Scratch);
  ASSERT_NE(Pub, nullptr);
  EXPECT_FALSE(diagCodes(*Pub).empty());

  H.didClose(Scratch);
  Ms = H.drain();
  Pub = lastPublishFor(Ms, Scratch);
  ASSERT_NE(Pub, nullptr) << "didClose must clear client-side diagnostics";
  EXPECT_TRUE(diagCodes(*Pub).empty());
  EXPECT_EQ(H.S.session().report(Scratch), nullptr)
      << "scratch buffers leave the session entirely";
}

TEST(Serve, ClosingACorpusFileRevertsToDiskContent) {
  fs::path Dir = writeCorpus("serve_close_corpus");
  std::string Caller = (Dir / "caller.mir").string();
  Harness H(Dir);
  H.start();

  H.didOpen(Caller, DoubleLockSrc, 1);
  H.S.flushPending();
  ASSERT_FALSE(diagCodes(*lastPublishFor(H.drain(), Caller)).empty());

  H.didClose(Caller);
  H.S.flushPending();
  std::vector<JsonValue> Ms = H.drain();
  const JsonValue *Pub = lastPublishFor(Ms, Caller);
  ASSERT_NE(Pub, nullptr);
  EXPECT_TRUE(diagCodes(*Pub).empty()) << "disk content is clean";
  EXPECT_NE(H.S.session().report(Caller), nullptr)
      << "corpus files stay resident";
}

TEST(Serve, LifecycleFollowsTheLspExitContract) {
  fs::path Dir = writeCorpus("serve_lifecycle");
  {
    Harness H(Dir);
    H.start();
    H.request(90, "shutdown", "{}");
    std::vector<JsonValue> Ms = H.drain();
    const JsonValue *R = findResponse(Ms, 90);
    ASSERT_NE(R, nullptr);
    ASSERT_NE(R->get("result"), nullptr);
    EXPECT_TRUE(R->get("result")->isNull());

    H.request(91, "shutdown", "{}"); // Anything after shutdown is invalid.
    Ms = H.drain();
    ASSERT_NE(findResponse(Ms, 91), nullptr);
    EXPECT_EQ(findResponse(Ms, 91)->get("error")->getInt("code"),
              InvalidRequest);

    EXPECT_FALSE(H.S.exitRequested());
    H.notify("exit", "{}");
    EXPECT_TRUE(H.S.exitRequested());
    EXPECT_EQ(H.S.exitCode(), 0);
  }
  {
    Harness H(Dir);
    H.start();
    H.notify("exit", "{}"); // Exit without shutdown is abnormal.
    EXPECT_TRUE(H.S.exitRequested());
    EXPECT_EQ(H.S.exitCode(), 1);
  }
}

TEST(Serve, ProtocolDamageYieldsErrorsNeverCrashes) {
  fs::path Dir = writeCorpus("serve_damage");
  Harness H(Dir);
  H.start();

  H.S.handleMessage("this is not json at all");
  H.S.handleMessage("[\"an\",\"array\"]");
  H.S.handleFramingError("missing Content-Length header");
  H.request(50, "no/such/method", "{}");

  std::vector<JsonValue> Ms = H.drain();
  ASSERT_EQ(Ms.size(), 4u);
  EXPECT_EQ(Ms[0].get("error")->getInt("code"), ParseError);
  EXPECT_EQ(Ms[1].get("error")->getInt("code"), InvalidRequest);
  EXPECT_EQ(Ms[2].get("error")->getInt("code"), ParseError);
  EXPECT_TRUE(Ms[2].get("id")->isNull());
  const JsonValue *R = findResponse(Ms, 50);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->get("error")->getInt("code"), MethodNotFound);

  // Malformed notification params are logged, not fatal.
  H.notify("textDocument/didChange", "{\"contentChanges\":[]}");
  Ms = H.drain();
  ASSERT_EQ(Ms.size(), 1u);
  EXPECT_EQ(Ms[0].getString("method"), "window/logMessage");
}
