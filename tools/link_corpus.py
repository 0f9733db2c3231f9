#!/usr/bin/env python3
"""Make a link-heavy copy of a MIR corpus.

Copies every .mir file of SRC into DST. Every EVERY-th file (in name order)
gains one function, `lk_call_<i>`, that calls the first function of the
next file with the same signature. Each such file is then a linked caller,
and the file it calls an exporter. With --every 1 every file is both, the
most work a cold linked run can do per file.

The generated corpus of `perfbench_tool gen` makes no cross-file calls, so
this is how to measure the link step's exporter reloads and linked
re-analyses at scale:

    perfbench_tool gen --seed 7 --files 1500 --edits 0 --out work
    python3 tools/link_corpus.py work/gen linked --every 1
    rustsight check --json --jobs 4 linked
"""
import argparse
import os
import re

SIGNATURE = re.compile(r"^fn (\w+)\(([^)]*)\)(?: -> ([^{]+?))? \{", re.M)


def caller(index, callee):
    name, params, ret = callee.group(1), callee.group(2), callee.group(3)
    ret = (ret or "()").strip()
    args = ", ".join("copy " + p.split(":")[0].strip()
                     for p in params.split(",") if p.strip())
    return ("\nfn lk_call_%d(%s) -> %s {\n"
            "    let mut _0: %s;\n"
            "    bb0: {\n"
            "        _0 = %s(%s) -> bb1;\n"
            "    }\n"
            "    bb1: {\n"
            "        return;\n"
            "    }\n"
            "}\n" % (index, params, ret, ret, name, args))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("src")
    ap.add_argument("dst")
    ap.add_argument("--every", type=int, default=1,
                    help="link every N-th file (default: every file)")
    args = ap.parse_args()
    if args.every < 1:
        ap.error("--every must be at least 1")

    names = sorted(n for n in os.listdir(args.src) if n.endswith(".mir"))
    texts = []
    for n in names:
        with open(os.path.join(args.src, n)) as f:
            texts.append(f.read())
    firsts = [SIGNATURE.search(t) for t in texts]
    os.makedirs(args.dst, exist_ok=True)
    linked = 0
    for i, (n, text) in enumerate(zip(names, texts)):
        callee = firsts[(i + 1) % len(names)]
        if i % args.every == 0 and callee:
            text += caller(i, callee)
            linked += 1
        with open(os.path.join(args.dst, n), "w") as f:
            f.write(text)
    print("%d file(s), %d linked" % (len(names), linked))


if __name__ == "__main__":
    main()
