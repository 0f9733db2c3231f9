#!/usr/bin/env python3
"""Generates the wide-object MIR fixtures in tests/mir/wide.

Each file holds one bug pattern and its benign twin, padded with filler
locals so that every function has exactly N abstract objects (the unknown
object, one per local, one per pointer parameter's pointee, one per
allocating call; see src/analysis/Objects.h). The sizes straddle one and
two 64-bit words of a points-to row (63, 64, 65, 130), and the pattern's
own locals are numbered after the fillers, so the objects the detectors
reason about sit in the high word while a few "low" locals stay in word 0.

    python3 tools/gen_wide_mir.py tests/mir/wide

The output is deterministic; tests/golden/wide_check.json pins the
`check --json` report over it.
"""

import os
import re
import sys

SIZES = (63, 64, 65, 130)

# Callees that never produce a fresh heap object (mir/Intrinsics.h): every
# other call with a destination allocates one (Objects.cpp, callMayAllocate).
NON_ALLOCATING = {
    "Mutex::lock", "RwLock::read", "RwLock::write", "RefCell::borrow",
    "RefCell::borrow_mut", "mem::drop", "drop_in_place", "mem::forget",
    "ptr::read", "ptr::write", "ptr::copy", "ptr::copy_nonoverlapping",
    "dealloc", "Arc::clone",
}

# A pattern: parameters (name, type), locals (name, type, low?), return
# type, and blocks whose text names locals as {name}. "low" locals are
# numbered before the fillers, so their objects land in word 0.
PATTERNS = {
    "uaf": {
        "params": [],
        "ret": "u8",
        "locals": [("b", "Box<u8>", False), ("p", "*const u8", False),
                   ("q", "*const u8", False), ("u", "()", True)],
        "bug": """
    bb0: {{
        StorageLive({b});
        {b} = Box::new(const 78) -> bb1;
    }}

    bb1: {{
        {p} = &raw const (*{b});
        {q} = wide_opaque(copy {p}) -> bb2;
    }}

    bb2: {{
        drop({b}) -> bb3;
    }}

    bb3: {{
        {u} = wide_release(copy {q}) -> bb4;
    }}

    bb4: {{
        _0 = copy (*{p});
        StorageDead({b});
        return;
    }}
""",
        "ok": """
    bb0: {{
        StorageLive({b});
        {b} = Box::new(const 78) -> bb1;
    }}

    bb1: {{
        {p} = &raw const (*{b});
        {q} = wide_opaque(copy {p}) -> bb2;
    }}

    bb2: {{
        _0 = copy (*{p});
        {u} = wide_keep(copy {q}) -> bb3;
    }}

    bb3: {{
        drop({b}) -> bb4;
    }}

    bb4: {{
        StorageDead({b});
        return;
    }}
""",
    },
    "scope": {
        "params": [("c", "bool")],
        "ret": "i32",
        "locals": [("lo", "i32", True), ("hi", "i32", False),
                   ("p", "*const i32", False)],
        "bug": """
    bb0: {{
        StorageLive({lo});
        {lo} = const 1;
        StorageLive({hi});
        {hi} = const 2;
        switchInt(copy {c}) -> [1: bb1, otherwise: bb2];
    }}

    bb1: {{
        {p} = &raw const {lo};
        goto -> bb3;
    }}

    bb2: {{
        {p} = &raw const {hi};
        goto -> bb3;
    }}

    bb3: {{
        StorageDead({hi});
        _0 = copy (*{p});
        StorageDead({lo});
        return;
    }}
""",
        "ok": """
    bb0: {{
        StorageLive({lo});
        {lo} = const 1;
        StorageLive({hi});
        {hi} = const 2;
        switchInt(copy {c}) -> [1: bb1, otherwise: bb2];
    }}

    bb1: {{
        {p} = &raw const {lo};
        goto -> bb3;
    }}

    bb2: {{
        {p} = &raw const {hi};
        goto -> bb3;
    }}

    bb3: {{
        _0 = copy (*{p});
        StorageDead({hi});
        StorageDead({lo});
        return;
    }}
""",
    },
    "double_lock": {
        "params": [("m", "&Mutex<i32>")],
        "ret": "i32",
        "locals": [("ml", "Mutex<i32>", True), ("rl", "&Mutex<i32>", True),
                   ("g0", "MutexGuard<i32>", False),
                   ("g1", "MutexGuard<i32>", False),
                   ("g2", "MutexGuard<i32>", False)],
        "bug": """
    bb0: {{
        StorageLive({rl});
        {rl} = &{ml};
        StorageLive({g0});
        {g0} = Mutex::lock(copy {rl}) -> bb1;
    }}

    bb1: {{
        StorageDead({g0});
        StorageLive({g1});
        {g1} = Mutex::lock(copy {m}) -> bb2;
    }}

    bb2: {{
        StorageLive({g2});
        {g2} = Mutex::lock(copy {m}) -> bb3;
    }}

    bb3: {{
        _0 = copy (*{g2});
        StorageDead({g2});
        StorageDead({g1});
        return;
    }}
""",
        "ok": """
    bb0: {{
        StorageLive({rl});
        {rl} = &{ml};
        StorageLive({g0});
        {g0} = Mutex::lock(copy {rl}) -> bb1;
    }}

    bb1: {{
        StorageDead({g0});
        StorageLive({g1});
        {g1} = Mutex::lock(copy {m}) -> bb2;
    }}

    bb2: {{
        StorageDead({g1});
        StorageLive({g2});
        {g2} = Mutex::lock(copy {m}) -> bb3;
    }}

    bb3: {{
        _0 = copy (*{g2});
        StorageDead({g2});
        return;
    }}
""",
    },
    "invalid_free": {
        "params": [],
        "ret": "()",
        "locals": [("p", "*mut GenPacket", False), ("v", "Vec<u8>", False),
                   ("s", "GenPacket", False), ("u", "()", False)],
        "bug": """
    bb0: {{
        {p} = alloc(const 41) -> bb1;
    }}

    bb1: {{
        {v} = Vec::with_capacity(const 50) -> bb2;
    }}

    bb2: {{
        {s} = GenPacket {{ 0: move {v} }};
        (*{p}) = move {s};
        return;
    }}
""",
        "ok": """
    bb0: {{
        {p} = alloc(const 41) -> bb1;
    }}

    bb1: {{
        {v} = Vec::with_capacity(const 50) -> bb2;
    }}

    bb2: {{
        {s} = GenPacket {{ 0: move {v} }};
        {u} = ptr::write(copy {p}, move {s}) -> bb3;
    }}

    bb3: {{
        return;
    }}
""",
    },
    "uninit_read": {
        "params": [("w", "*mut u8")],
        "ret": "u8",
        "locals": [("p", "*mut u8", False), ("lo", "u8", True)],
        "bug": """
    bb0: {{
        StorageLive({lo});
        {lo} = copy (*{w});
        {p} = alloc(const 10) -> bb1;
    }}

    bb1: {{
        _0 = copy (*{p});
        return;
    }}
""",
        "ok": """
    bb0: {{
        StorageLive({lo});
        {lo} = copy (*{w});
        {p} = alloc(const 10) -> bb1;
    }}

    bb1: {{
        (*{p}) = copy {lo};
        _0 = copy (*{p});
        return;
    }}
""",
    },
}

HELPERS = """fn wide_release(_1: *const u8) {
    let mut _0: ();

    bb0: {
        dealloc(copy _1) -> bb1;
    }

    bb1: {
        return;
    }
}

fn wide_keep(_1: *const u8) {
    let mut _0: ();

    bb0: {
        return;
    }
}
"""

CALL = re.compile(r"= ([A-Za-z_][A-Za-z_0-9:]*)\(")


def allocating_calls(body):
    n = 0
    for callee in CALL.findall(body):
        if "::" not in callee and callee[0].isupper():
            continue  # An aggregate (GenPacket { .. }) is not a call.
        if callee not in NON_ALLOCATING:
            n += 1
    return n


def function(pattern, variant, objects):
    spec = PATTERNS[pattern]
    params = spec["params"]
    body_t = spec[variant]
    low = [(n, t) for n, t, is_low in spec["locals"] if is_low]
    high = [(n, t) for n, t, is_low in spec["locals"] if not is_low]
    ptr_params = sum(1 for _, t in params if t.startswith(("&", "*")))
    heap = allocating_calls(body_t.format(**{n: n for n, _, _ in
                                             spec["locals"]},
                                          **{n: n for n, _ in params}))
    # Objects = unknown + locals (return place, params, low, fillers, high)
    # + pointer-parameter pointees + allocating calls.
    fixed = 1 + 1 + len(params) + len(spec["locals"]) + ptr_params + heap
    fillers = objects - fixed
    assert fillers >= 4, (pattern, objects)

    names = {}
    decls = []
    next_id = 1
    for n, t in params:
        names[n] = "_%d" % next_id
        next_id += 1
    for n, t in low:
        names[n] = "_%d" % next_id
        decls.append((names[n], t))
        next_id += 1
    filler_ids = list(range(next_id, next_id + fillers))
    for i in filler_ids:
        decls.append(("_%d" % i, "i32"))
    next_id += fillers
    for n, t in high:
        names[n] = "_%d" % next_id
        decls.append((names[n], t))
        next_id += 1

    name = "wide_%s_%s_%d" % (pattern, variant, objects)
    sig = ", ".join("%s: %s" % (names[n], t) for n, t in params)
    lines = ["fn %s(%s) -> %s {" % (name, sig, spec["ret"]),
             "    let mut _0: %s;" % spec["ret"]]
    lines += ["    let mut %s: %s;" % (l, t) for l, t in decls]
    lines.append("")
    # Fillers live in a prefix block that falls through to the pattern, so
    # they do not renumber the pattern's blocks.
    body = body_t.format(**names).replace("bb", "bbp")
    lines.append("    bb0: {")
    for k, i in enumerate(filler_ids):
        lines.append("        StorageLive(_%d);" % i)
        lines.append("        _%d = Add(const %d, const %d);" % (i, k, k + 1))
        if k % 3 == 2:
            lines.append("        StorageDead(_%d);" % i)
    lines.append("        goto -> bb1;")
    lines.append("    }")
    # Renumber the pattern's blocks after the prefix block.
    body = re.sub(r"bbp(\d+)", lambda m: "bb%d" % (int(m.group(1)) + 1),
                  body)
    lines.append(body.rstrip("\n"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: gen_wide_mir.py OUTDIR")
    out = sys.argv[1]
    os.makedirs(out, exist_ok=True)
    for pattern in PATTERNS:
        for n in SIZES:
            text = ["// Generated by tools/gen_wide_mir.py: %d abstract "
                    "objects per function." % n,
                    "struct GenPacket : Drop { buf: Vec<u8> }", ""]
            text.append(function(pattern, "bug", n))
            text.append(function(pattern, "ok", n))
            text.append(HELPERS)
            with open(os.path.join(out, "wide_%s_%d.mir" % (pattern, n)),
                      "w") as f:
                f.write("\n".join(text))


if __name__ == "__main__":
    main()
