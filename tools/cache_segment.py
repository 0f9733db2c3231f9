#!/usr/bin/env python3
"""Read and edit the segment files of a `rustsight --cache-dir` directory.

A cache directory holds sealed segments, `rsseg-<generation>-<writer>.seg`
(newest generation wins per key). A segment is its entries back to back,
each in the "RSCB" envelope (magic, version, key, payload size, FNV-1a of
the payload, payload), then one (key, offset, length) record per entry,
then a 40-byte footer: "RSSG", version, record count, index offset, FNV-1a
of the index, FNV-1a of the footer's first 32 bytes. All integers are
little-endian. See src/sched/ResultCache.h.

    python3 tools/cache_segment.py list DIR
    python3 tools/cache_segment.py rewrite DIR KEY PAYLOAD_FILE

`list` prints one line per segment and one per entry, labeled by kind:
snapshot ("RSMS"), link-state ("RSLS"), summary (JSON with "drops"),
report ("RSRP", the binary FileReport payload) or blob (link facts). `rewrite`
replaces the payload of the newest entry under KEY (16 hex digits) and
re-seals that segment: envelope checksum, index and footer. Only the
layers above the cache can then tell the entry was edited, which is what
the cold-not-corrupt drills need. Drills that edit many entries import
this module and use segments(), read_segment() and write_segment().
"""
import argparse
import os
import struct
import sys

ENVELOPE = struct.Struct("<4sIQQQ")
RECORD = struct.Struct("<QQQ")
FOOTER = struct.Struct("<4sIQQQQ")
BLOB_VERSION = 1
SEGMENT_VERSION = 1


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def envelope(key, payload):
    return ENVELOPE.pack(b"RSCB", BLOB_VERSION, key, len(payload),
                         fnv1a64(payload)) + payload


def segments(directory):
    """The sealed segments of `directory`, newest first."""
    names = [n for n in os.listdir(directory)
             if n.startswith("rsseg-") and n.endswith(".seg")]
    return [os.path.join(directory, n) for n in sorted(names, reverse=True)]


def parse(raw):
    """(index offset, [(key, payload)]) of segment bytes `raw`; ValueError
    when the footer, index or an envelope is damaged."""
    if len(raw) < FOOTER.size:
        raise ValueError("shorter than a footer")
    footer = raw[-FOOTER.size:]
    magic, version, count, index_off, index_sum, footer_sum = \
        FOOTER.unpack(footer)
    if magic != b"RSSG" or version != SEGMENT_VERSION or \
            footer_sum != fnv1a64(footer[:32]):
        raise ValueError("bad footer")
    index = raw[index_off:len(raw) - FOOTER.size]
    if len(index) != count * RECORD.size or fnv1a64(index) != index_sum:
        raise ValueError("bad index")
    entries = []
    for i in range(count):
        key, off, length = RECORD.unpack_from(index, i * RECORD.size)
        magic, version, stored, size, checksum = \
            ENVELOPE.unpack_from(raw, off)
        payload = raw[off + ENVELOPE.size:off + length]
        if magic != b"RSCB" or version != BLOB_VERSION or stored != key or \
                size != len(payload) or checksum != fnv1a64(payload):
            raise ValueError("bad envelope for key %016x" % key)
        entries.append((key, payload))
    return index_off, entries


def read_segment(path):
    """[(key, payload)] of the segment at `path`, in file order."""
    with open(path, "rb") as f:
        return parse(f.read())[1]


def index_offset(path):
    """Where the index of the segment at `path` starts."""
    with open(path, "rb") as f:
        return parse(f.read())[0]


def write_segment(path, entries):
    """Writes [(key, payload)] as one sealed segment."""
    body, index = b"", b""
    for key, payload in entries:
        env = envelope(key, bytes(payload))
        index += RECORD.pack(key, len(body), len(env))
        body += env
    head = struct.pack("<4sIQQQ", b"RSSG", SEGMENT_VERSION, len(entries),
                       len(body), fnv1a64(index))
    with open(path, "wb") as f:
        f.write(body + index + head + struct.pack("<Q", fnv1a64(head)))


def kind(payload):
    if payload.startswith(b"RSMS"):
        return "snapshot"
    if payload.startswith(b"RSLS"):
        return "link-state"
    if b'"drops":' in payload:
        return "summary"
    if payload.startswith(b"RSRP"):
        return "report"
    return "blob"


def cmd_list(args):
    for seg in segments(args.dir):
        try:
            off, entries = parse(open(seg, "rb").read())
        except ValueError as e:
            print("%s damaged: %s" % (os.path.basename(seg), e))
            continue
        print("%s %d entries, index at %d" % (os.path.basename(seg),
                                               len(entries), off))
        for key, payload in entries:
            print("  %016x %8d %s" % (key, len(payload), kind(payload)))
    return 0


def cmd_rewrite(args):
    key = int(args.key, 16)
    with open(args.payload_file, "rb") as f:
        payload = f.read()
    for seg in segments(args.dir):
        entries = read_segment(seg)
        if any(k == key for k, _ in entries):
            write_segment(seg, [(k, payload if k == key else p)
                                for k, p in entries])
            return 0
    print("no entry %016x in %s" % (key, args.dir), file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("list", help="print every segment and entry")
    p.add_argument("dir")
    p.set_defaults(fn=cmd_list)
    p = sub.add_parser("rewrite", help="replace one entry's payload")
    p.add_argument("dir")
    p.add_argument("key", help="16 hex digits")
    p.add_argument("payload_file")
    p.set_defaults(fn=cmd_rewrite)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
