#!/usr/bin/env bash
# Scripted end-to-end smoke session against `rustsight serve`, exercising
# the daemon over real pipes the way an editor would:
#
#   1. initialize -> serverInfo sanity -> initialized -> initial
#      publishDiagnostics sweep (double_lock.mir must carry RS-DL-001, and
#      when the corpus holds the eval/ cross-file pairs, each
#      xfile_*_bug_0_use.mir its cross-file finding);
#   2. didOpen clean.mir, didChange injecting a double-lock -> the
#      debounced re-analysis publishes RS-DL-001 for the edited buffer;
#      with eval/ present, rewriting xfile_uaf_bug_0_def.mir with its
#      benign body republishes the caller without RS-UAF-001;
#   3. shutdown -> exit must terminate the daemon with exit code 0;
#   4. an abrupt EOF without shutdown must exit nonzero (abnormal);
#   5. --idle-timeout-ms must let an abandoned daemon exit 0 on its own;
#   6. with --cache-dir, what the initial sweep stored is there for a later
#      `check`, both after a clean exit and after the daemon is killed.
#
# Usage: serve_smoke.sh <rustsight-binary> <mir-corpus-dir>
set -euo pipefail

RS=${1:?usage: serve_smoke.sh <rustsight-binary> <mir-corpus-dir>}
CORPUS=${2:?usage: serve_smoke.sh <rustsight-binary> <mir-corpus-dir>}

python3 - "$RS" "$CORPUS" <<'EOF'
import json
import os
import re
import subprocess
import sys
import time

rs = os.path.abspath(sys.argv[1])
corpus = os.path.abspath(sys.argv[2])


class LspPipe:
    """Minimal Content-Length-framed JSON-RPC client over a daemon's pipes."""

    def __init__(self, args):
        self.p = subprocess.Popen(args, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
        self.buf = b""

    def send(self, obj):
        payload = json.dumps(obj).encode()
        self.p.stdin.write(b"Content-Length: %d\r\n\r\n" % len(payload))
        self.p.stdin.write(payload)
        self.p.stdin.flush()

    def read_message(self):
        while True:
            m = re.search(rb"Content-Length: (\d+)\r\n\r\n", self.buf)
            if m:
                n = int(m.group(1))
                start = m.end()
                if len(self.buf) >= start + n:
                    payload = self.buf[start:start + n]
                    self.buf = self.buf[start + n:]
                    return json.loads(payload)
            chunk = self.p.stdout.read1(65536)
            if not chunk:
                raise SystemExit("daemon closed stdout mid-session")
            self.buf += chunk

    def wait_for(self, pred, what):
        for _ in range(1000):
            msg = self.read_message()
            if pred(msg):
                return msg
        raise SystemExit("never saw: " + what)


def publishes_for(uri):
    return lambda m: (m.get("method") == "textDocument/publishDiagnostics"
                      and m["params"]["uri"] == uri)


# --- 1+2+3: the full editor session -----------------------------------------
clean = os.path.join(corpus, "clean.mir")
clean_uri = "file://" + clean
double_lock_src = open(os.path.join(corpus, "double_lock.mir")).read()

s = LspPipe([rs, "serve", "--debounce-ms", "50", corpus])
s.send({"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}})
resp = s.wait_for(lambda m: m.get("id") == 1, "initialize response")
info = resp["result"]["serverInfo"]
assert info["name"] == "rustsight", info
assert info["ruleCount"] >= 18, info
assert info["schemaVersion"] >= 2, info
print("serve_smoke: serverInfo ok:", info)

s.send({"jsonrpc": "2.0", "method": "initialized", "params": {}})
# The cross-file pairs of the eval corpus, when the corpus holds them: each
# bug's use file must carry the finding `check` reports through the link.
eval_dir = os.path.join(corpus, "eval")
xfile_expect = {}
if os.path.isdir(eval_dir):
    xfile_expect = {
        "file://" + os.path.join(eval_dir, "xfile_%s_bug_0_use.mir" % k): c
        for k, c in (("uaf", "RS-UAF-001"), ("double_lock", "RS-DL-001"),
                     ("lock_order", "RS-LO-001"))}
initial = {}
want = set(xfile_expect) | {"file://" + os.path.join(corpus,
                                                     "double_lock.mir")}
while not want <= set(initial):
    m = s.wait_for(lambda m: m.get("method") ==
                   "textDocument/publishDiagnostics",
                   "initial publishDiagnostics sweep")
    initial[m["params"]["uri"]] = [d["code"]
                                   for d in m["params"]["diagnostics"]]
codes = initial["file://" + os.path.join(corpus, "double_lock.mir")]
assert "RS-DL-001" in codes, codes
print("serve_smoke: initial sweep flagged double_lock.mir:", codes)
for uri, code in sorted(xfile_expect.items()):
    assert initial[uri] == [code], (uri, initial[uri])
if xfile_expect:
    print("serve_smoke: initial sweep carries the %d cross-file findings"
          % len(xfile_expect))

s.send({"jsonrpc": "2.0", "method": "textDocument/didOpen", "params": {
    "textDocument": {"uri": clean_uri, "languageId": "rustlite-mir",
                     "version": 1, "text": open(clean).read()}}})
s.send({"jsonrpc": "2.0", "method": "textDocument/didChange", "params": {
    "textDocument": {"uri": clean_uri, "version": 2},
    "contentChanges": [{"text": double_lock_src}]}})
pub = s.wait_for(lambda m: (publishes_for(clean_uri)(m)
                            and m["params"].get("version") == 2),
                 "publishDiagnostics for the edited buffer (version 2)")
codes = [d["code"] for d in pub["params"]["diagnostics"]]
assert codes == ["RS-DL-001"], codes
print("serve_smoke: didChange republished the injected bug:", codes)

if xfile_expect:
    # A callee edit reaches its caller: the benign body, renamed so the
    # call still resolves, clears the use file's cross-file finding.
    def_path = os.path.join(eval_dir, "xfile_uaf_bug_0_def.mir")
    def_uri = "file://" + def_path
    use_uri = "file://" + os.path.join(eval_dir, "xfile_uaf_bug_0_use.mir")
    benign = open(os.path.join(eval_dir, "xfile_uaf_ok_0_def.mir")).read()
    benign = benign.replace("xf_free_ok_0", "xf_free_bug_0")
    s.send({"jsonrpc": "2.0", "method": "textDocument/didOpen", "params": {
        "textDocument": {"uri": def_uri, "languageId": "rustlite-mir",
                         "version": 1, "text": open(def_path).read()}}})
    s.send({"jsonrpc": "2.0", "method": "textDocument/didChange", "params": {
        "textDocument": {"uri": def_uri, "version": 2},
        "contentChanges": [{"text": benign}]}})
    pub = s.wait_for(publishes_for(use_uri),
                     "caller republish after the callee edit")
    codes = [d["code"] for d in pub["params"]["diagnostics"]]
    assert "RS-UAF-001" not in codes, codes
    print("serve_smoke: callee edit cleared the caller's RS-UAF-001:", codes)

s.send({"jsonrpc": "2.0", "id": 2, "method": "shutdown"})
s.wait_for(lambda m: m.get("id") == 2, "shutdown response")
s.send({"jsonrpc": "2.0", "method": "exit"})
rc = s.p.wait(timeout=30)
assert rc == 0, "clean shutdown must exit 0, got %d" % rc
print("serve_smoke: shutdown/exit contract ok (exit 0)")

# --- 4: abrupt EOF without shutdown is abnormal ------------------------------
s = LspPipe([rs, "serve", corpus])
s.send({"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}})
s.wait_for(lambda m: m.get("id") == 1, "initialize response")
s.p.stdin.close()
rc = s.p.wait(timeout=30)
assert rc != 0, "EOF without shutdown must exit nonzero"
print("serve_smoke: abrupt EOF exits nonzero (%d)" % rc)

# --- 5: an abandoned daemon reaps itself on the idle timeout -----------------
p = subprocess.Popen([rs, "serve", "--idle-timeout-ms", "400"],
                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE)
start = time.time()
rc = p.wait(timeout=30)
err = p.stderr.read().decode()
assert rc == 0, "idle timeout must exit 0, got %d (%s)" % (rc, err)
assert "idle" in err or "traffic" in err, err
print("serve_smoke: idle timeout reaped the daemon after %.1fs (exit 0)"
      % (time.time() - start))

# --- 6: a session's cache entries outlive the daemon --------------------------
# A clean exit seals the session's segment; a killed daemon leaves its
# temporary, which the next process to open the directory recovers. Either
# way a later `check` of the corpus finds on disk every report a `check`
# would have stored.
import shutil
import tempfile


def cache_line(args):
    r = subprocess.run([rs, "check"] + args + [corpus], capture_output=True)
    assert r.returncode in (0, 1), r.stderr.decode()[-500:]
    lines = [l for l in r.stderr.decode().splitlines()
             if l.startswith("cache: ")]
    assert lines, r.stderr.decode()[-500:]
    return lines[-1].split(";")[0]


def misses(line):
    return int(re.search(r"(\d+) miss\(es\)", line).group(1))


# The baseline: a warm `check` after a `check` filled the directory (files
# that fail analysis are never cached, so they miss either way).
cache = tempfile.mkdtemp(prefix="serve_smoke_cache_")
try:
    cache_line(["--cache-dir", cache])
    baseline = misses(cache_line(["--cache-dir", cache]))
finally:
    shutil.rmtree(cache, ignore_errors=True)

for ending in ("exit", "kill"):
    cache = tempfile.mkdtemp(prefix="serve_smoke_cache_")
    try:
        s = LspPipe([rs, "serve", "--cache-dir", cache, corpus])
        s.send({"jsonrpc": "2.0", "id": 1, "method": "initialize",
                "params": {}})
        s.wait_for(lambda m: m.get("id") == 1, "initialize response")
        s.send({"jsonrpc": "2.0", "method": "initialized", "params": {}})
        seen = set()
        while not want <= seen:
            m = s.wait_for(lambda m: m.get("method") ==
                           "textDocument/publishDiagnostics",
                           "initial publishDiagnostics sweep")
            seen.add(m["params"]["uri"])
        if ending == "exit":
            s.send({"jsonrpc": "2.0", "id": 2, "method": "shutdown"})
            s.wait_for(lambda m: m.get("id") == 2, "shutdown response")
            s.send({"jsonrpc": "2.0", "method": "exit"})
            assert s.p.wait(timeout=30) == 0
        else:
            s.p.kill()
            s.p.wait(timeout=30)
        line = cache_line(["--cache-dir", cache])
        assert misses(line) == baseline and ", 0 corrupt)" in line, \
            (ending, baseline, line)
        print("serve_smoke: after %s, check reads the session's cache: %s"
              % (ending, line))
    finally:
        shutil.rmtree(cache, ignore_errors=True)

print("serve_smoke: all checks passed")
EOF
