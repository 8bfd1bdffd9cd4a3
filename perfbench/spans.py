"""In-memory span recorder for the traced benchmark run.

The tracer replaces a library function at the attribute its caller looks
it up by (for example ``gh401.cipher.generate_orbit``, which the cipher
pipelines call) with a wrapper that records one span per call while an op
is open.  Nothing inside ``src/gh401`` is modified; every wrapper is
undone by :meth:`Tracer.restore`.

A span is ``(name, start, end, parent, op, work, tag)``.  ``parent`` is
the index of the enclosing span, ``op`` the benchmark op it belongs to,
``work`` a count computed from the call's arguments or result (orbit
rows, sorted elements, bytes, blocks), and ``tag`` the CLI subcommand
for ``cli`` spans.  Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
from collections import namedtuple
from time import perf_counter

Span = namedtuple("Span", "name start end parent op work tag")

ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self.layers: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, owner, attr, name, work=None, tag=None):
        """Record a span named ``name`` around every call of ``owner.attr``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, name, start, perf_counter(), 0, None)
                raise
            end = perf_counter()
            tracer._close(sid, name, start, end,
                          work(args, kwargs, result) if work else 0,
                          tag(args) if tag else None)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._undo.append((owner, attr, raw))
        if name not in self.layers:
            self.layers.append(name)

    def restore(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start, end, work, tag):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = Span(name, start, end, parent, self.op, work, tag)

    def open_op(self, op: int):
        """Start recording op ``op`` under a root span covering the whole op."""
        self.op = op
        self._root = (self._open(), perf_counter())

    def close_op(self):
        sid, start = self._root
        self._close(sid, ROOT, start, perf_counter(), 0, None)
        self.op = None

    def write(self, path, t0: float):
        """Write every span as one JSON line, times relative to ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "op": s.op, "work": s.work, "tag": s.tag,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def ancestor(spans, sid: int, name: str):
    """The nearest enclosing span called ``name``, or None."""
    parent = spans[sid].parent
    while parent is not None:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None


def _size(args, kwargs, result):
    return int(args[0].size)


def _blocks(args, kwargs, result):
    return int(args[0].size) // 4


def _result_len(args, kwargs, result):
    return len(result)


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _image_bytes(args, kwargs, result):
    return int(result.nbytes)


def _written_bytes(args, kwargs, result):
    return int(args[1].nbytes)


def _subcommand(args):
    argv = args[0] if args else None
    return argv[0] if argv else None


def install_layers(tracer: Tracer, gh401) -> None:
    """Wrap the public functions of every gh401 layer at their call sites.

    The cipher pipelines look up the chaos, permute and diffuse functions
    in ``gh401.cipher``; the CLI looks up the PGM functions and
    ``bundled_sbox`` in ``gh401.cli`` and the analysis functions in
    ``gh401.analysis``.  The library workload calls the package-level
    ``gh401.encrypt_gh401``/``decrypt_gh401``, so those are wrapped too.
    """
    cipher, cli, analysis = gh401.cipher, gh401.cli, gh401.analysis
    transient = gh401.TRANSIENT_LENGTH

    def orbit_rows(args, kwargs, result):
        # generate_orbit iterates TRANSIENT_LENGTH + length times and keeps the tail
        return transient + int(args[3] if len(args) > 3 else kwargs["length"])

    w = tracer.wrap
    w(cipher, "generate_orbit", "chaos.generate_orbit", work=orbit_rows)
    w(cipher, "derive_initial_conditions", "chaos.derive_initial_conditions")
    w(cipher, "derive_whitening_key", "chaos.derive_whitening_key")
    w(cipher, "build_sort_sequence", "chaos.build_sort_sequence")
    w(cipher, "argsort_ascending", "chaos.argsort_ascending", work=_size)
    w(cipher, "permute_gh401", "permute.forward", work=_size)
    w(cipher, "permute_ieahf", "permute.forward", work=_size)
    w(cipher, "invert_permute", "permute.invert_permute", work=_size)
    w(cipher, "diffuse_gh401", "diffuse.forward", work=_blocks)
    w(cipher, "diffuse_ieahf", "diffuse.forward", work=_blocks)
    w(cipher, "inverse_diffuse", "diffuse.inverse_diffuse", work=_blocks)
    for owner in (cipher, gh401):
        w(owner, "encrypt_gh401", "cipher.encrypt")
        w(owner, "decrypt_gh401", "cipher.decrypt")
    w(cipher, "encrypt_ieahf", "cipher.encrypt")
    w(cipher, "decrypt_ieahf", "cipher.decrypt")
    w(cipher.SideChannelFile, "to_bytes", "cipher.side_file.encode", work=_result_len)
    w(cipher.SideChannelFile, "from_bytes", "cipher.side_file.decode")
    w(cipher.KeyEnvelope, "to_text", "cipher.envelope.encode", work=_text_bytes)
    w(cipher.KeyEnvelope, "from_text", "cipher.envelope.decode")
    w(cli, "read_pgm", "image_io.read_pgm", work=_image_bytes)
    w(cli, "write_pgm", "image_io.write_pgm", work=_written_bytes)
    w(cli, "bundled_sbox", "sbox.bundled_sbox")
    w(analysis, "differential_test", "analysis.differential_test")
    w(analysis, "npcr_uaci", "analysis.npcr_uaci")
    w(analysis, "full_report", "analysis.full_report")
    w(cli, "main", "cli", tag=_subcommand)
