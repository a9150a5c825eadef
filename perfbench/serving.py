"""Phase group ``serve``: a ``repro serve`` daemon over loopback TCP.

The daemon runs as a subprocess with the default serving flags
(workers=1, flush_ms=2, max_rows=64), spelled out explicitly. One
asyncio client drives it over one connection; a short second
connection only carries ``stats`` requests between phases.

Traffic is Zipf-skewed over a fixed ranking of (pipeline, n) keys, so
hot keys coalesce into ``2d``/``ragged`` flushes and cold keys flush
as single-row ``loop`` buckets. Frames are JSON-encoded before the
timed phases (a request only prepends its id); responses are stored
raw and checked after the timed phases against a sequential
in-process ``SVM`` oracle.

* ``open``: an open loop at the fixed offered rate of the settings;
  latency counts from each request's due time, and the generator's
  own lateness is reported.
* ``saturate``: a closed loop with a fixed in-flight window.
"""

from __future__ import annotations

import asyncio
import json
import selectors
import subprocess
import sys
import time

import numpy as np

from .harness import SETTINGS, Phase, Tally, Tracer, child_env, median, percentile
from .reference import VALUE_RANGE

CFG = SETTINGS["serve"]
KEYS = [tuple(k) for k in CFG["keys"]]
LIMIT = 64 * 1024 * 1024
HOST = "127.0.0.1"
#: Seconds to wait for a response before giving the rest of a burst up
#: as failed (a healthy daemon answers within milliseconds).
REPLY_TIMEOUT = 30.0


def _zipf_weights() -> np.ndarray:
    w = 1.0 / np.arange(1, len(KEYS) + 1) ** CFG["zipf_s"]
    return w / w.sum()


def _open_burst_len() -> int:
    return max(1, int(CFG["offered_rps"] * CFG["open_burst_s"]))


def _stratified(rng: np.random.Generator, block: int, count: int) -> np.ndarray:
    """``count`` key indices, Zipf-skewed, in blocks of ``block``: every
    block holds each key the same number of times (the Zipf shares,
    rounded by largest remainder) in a seeded order. A burst is one
    block, so every burst and every seed offers the same mix; drawn
    independently, the share of n=8192 requests in a 256-request burst
    varies by about 8% from seed to seed, and the rate with it."""
    share = _zipf_weights() * block
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[:block - counts.sum()]] += 1
    mix = np.repeat(np.arange(len(KEYS)), counts)
    blocks = -(-count // block)
    return np.concatenate([rng.permutation(mix) for _ in range(blocks)])[:count]


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, run_dir, telemetry: bool = True) -> None:
        self.run_dir = run_dir
        self.telemetry = telemetry
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._log = None

    def start(self, timeout: float = 60.0) -> None:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", HOST, "--port", "0", "--workers", "1",
               "--flush-ms", "2", "--max-rows", "64",
               "--vlen", "1024", "--codegen", "paper", "--mode", "auto",
               "--backend", "codegen"]
        if not self.telemetry:
            cmd.append("--no-telemetry")
        tag = "default" if self.telemetry else "no-telemetry"
        self._log = open(self.run_dir / f"daemon-{tag}.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, env=child_env(),
                                     cwd=str(self.run_dir))
        deadline = time.monotonic() + timeout
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(self.proc.stdout, selectors.EVENT_READ)
                while self.port is None:
                    left = deadline - time.monotonic()
                    if left <= 0 or not sel.select(left):
                        raise RuntimeError("serve daemon did not announce its port")
                    line = self.proc.stdout.readline().decode()
                    if not line:
                        raise RuntimeError("serve daemon exited during start-up")
                    if line.startswith("REPRO_SERVE listening addr="):
                        addr = line.split("addr=", 1)[1].split()[0]
                        self.port = int(addr.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Graceful drain via the ``shutdown`` request, then wait; kill
        if the daemon does not exit in time."""
        if self.proc is None:
            return
        try:
            if self.port is not None and self.proc.poll() is None:
                asyncio.run(_request(self.port, {"op": "shutdown"}))
            self.proc.communicate(timeout=30)
        except (OSError, asyncio.TimeoutError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.communicate()
        finally:
            self.proc = None
            if self._log is not None:
                self._log.close()


async def _request(port: int, obj: dict, timeout: float = 30.0) -> dict:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(HOST, port, limit=LIMIT), timeout)
    try:
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), timeout))
    finally:
        writer.close()
        await writer.wait_closed()


def _stats(tr: Tracer, port: int) -> dict:
    span = tr.begin("serve.server/stats")
    try:
        return asyncio.run(_request(port, {"id": "stats", "op": "stats"}))["stats"]
    finally:
        tr.end(span)


def _frame(i: int, body: bytes) -> bytes:
    return b'{"id":%d,' % i + body


async def _open_loop(port: int, frames: list, rate: float):
    reader, writer = await asyncio.open_connection(HOST, port, limit=LIMIT)
    lines: list = []
    n = len(frames)

    async def read_all():
        while len(lines) < n:
            line = await reader.readline()
            if not line:
                return
            lines.append((time.perf_counter_ns(), line))

    task = asyncio.create_task(read_all())
    period = 1e9 / rate
    t0 = time.perf_counter_ns() + 5_000_000
    due = [t0 + int(i * period) for i in range(n)]
    sent = [0] * n
    try:
        for i in range(n):
            wait = due[i] - time.perf_counter_ns()
            if wait > 0:
                await asyncio.sleep(wait / 1e9)
            writer.write(frames[i])
            sent[i] = time.perf_counter_ns()
            if writer.transport.get_write_buffer_size() > (1 << 20):
                await writer.drain()
        await writer.drain()
        await asyncio.wait_for(task, REPLY_TIMEOUT)
    except asyncio.TimeoutError:
        pass  # the missing responses count as failed requests
    finally:
        task.cancel()
        writer.close()
        await writer.wait_closed()
    return due, sent, lines


async def _closed_loop(port: int, frame_at, window: int, count: int):
    """Send ``count`` requests keeping ``window`` in flight: every
    response releases the next request."""
    reader, writer = await asyncio.open_connection(HOST, port, limit=LIMIT)
    lines: list = []
    sent: list = []
    try:
        t_start = time.perf_counter_ns()
        for _ in range(min(window, count)):
            writer.write(frame_at(len(sent)))
            sent.append(time.perf_counter_ns())
        await writer.drain()
        while len(lines) < len(sent):
            try:
                line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT)
            except asyncio.TimeoutError:
                break  # the missing responses count as failed requests
            if not line:
                break
            lines.append((time.perf_counter_ns(), line))
            if len(sent) < count:
                writer.write(frame_at(len(sent)))
                sent.append(time.perf_counter_ns())
        t_last = lines[-1][0] if lines else time.perf_counter_ns()
    finally:
        writer.close()
        await writer.wait_closed()
    return sent, lines, (t_last - t_start) / 1e9


class Serve:
    """The daemon, the seeded traffic and the serve phases."""

    def __init__(self, rng: np.random.Generator, run_dir) -> None:
        self.run_dir = run_dir
        p = CFG["payloads_per_key"]
        self.payloads = [[rng.integers(0, VALUE_RANGE, n, dtype=np.uint32)
                          for _ in range(p)] for _, n in KEYS]
        # request bodies encoded before any timed phase; a frame is
        # b'{"id":I,' + body
        self.bodies = [[json.dumps({"op": "execute", "pipeline": name,
                                    "data": x.tolist(), "dtype": "uint32"},
                                   separators=(",", ":")).encode()[1:] + b"\n"
                        for x in self.payloads[k]]
                       for k, (name, _n) in enumerate(KEYS)]
        cap = 1 << 16  # sequences wrap around past this many requests
        # (key, payload) per request id, as arrays: a few objects, not
        # a hundred thousand tuples for the garbage collector to scan
        self.seq = {
            phase: np.stack([_stratified(rng, block, cap),
                             rng.integers(0, p, cap)], axis=1)
            for phase, block in (("open", _open_burst_len()),
                                 ("saturate", CFG["saturate_burst"]))
        }
        self.daemon: Daemon | None = None
        self._phases: list = []

    def frame(self, phase: str, i: int) -> bytes:
        k, p = self.key_of(phase, i)
        return _frame(i, self.bodies[k][p])

    def key_of(self, phase: str, i: int) -> tuple[int, int]:
        seq = self.seq[phase]
        k, p = seq[i % len(seq)]
        return int(k), int(p)

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.daemon = self._start(telemetry=True)

    def _start(self, telemetry: bool) -> Daemon:
        """Start a daemon and warm every key on every flush path."""
        d = Daemon(self.run_dir, telemetry=telemetry)
        d.start()
        try:
            warm = [self.bodies[k][r % len(self.bodies[k])]
                    for k in range(len(KEYS)) for r in range(CFG["max_rows_warm"])]
            frames = [_frame(i, b) for i, b in enumerate(warm)]
            asyncio.run(_closed_loop(d.port, frames.__getitem__, len(frames),
                                     len(frames)))
            single = [_frame(k, self.bodies[k][0]) for k in range(len(KEYS))]
            asyncio.run(_closed_loop(d.port, single.__getitem__, 1, len(single)))
        except BaseException:
            d.stop()
            raise
        return d

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def phases(self, tr: Tracer) -> list:
        self._phases = [OpenLoop(self), Saturate(self)]
        return self._phases

    # ------------------------------------------------------------------
    def check(self, tally: Tally) -> None:
        """After the timed phases: decode every stored response, count
        failures (refusals apart), and compare each successful one
        with a sequential in-process ``SVM`` run of the same pipeline
        on the same payload (on the ``valid`` survivor prefix for pack
        pipelines)."""
        from repro import SVM
        from repro.batch import run_batch
        from repro.config import ExecConfig
        from repro.serve.protocol import PIPELINES

        svm = SVM(config=ExecConfig(vlen=1024, backend="codegen"),
                  codegen="paper", mode="auto")
        expect: dict = {}
        for phase in self._phases:
            for burst in phase.bursts:
                for _ in range(len(burst.sent) - len(burst.lines)):
                    tally.fail(f"{phase.name}: no response within "
                               f"{REPLY_TIMEOUT:.0f} s")
                for i, obj, t_recv in burst.decode():
                    if not obj.get("ok"):
                        tally.fail(f"{phase.name}: request {i} failed: "
                                   f"{obj.get('code')} {obj.get('error')}",
                                   refused=obj.get("code") == "overloaded")
                        continue
                    k, p = self.key_of(phase.kind, i)
                    if (k, p) not in expect:
                        name, _n = KEYS[k]
                        res = run_batch(svm, PIPELINES[name], [self.payloads[k][p]])
                        out, kept = res.outputs[0], res.lengths[0]
                        expect[(k, p)] = (out if kept is None else out[:kept], kept)
                    ref, kept = expect[(k, p)]
                    got = np.asarray(obj["result"], dtype=np.uint32)
                    good = obj.get("valid") == kept and np.array_equal(got, ref)
                    tally.check(good, f"serve {KEYS[k]} payload {p}: response "
                                      "differs from the in-process oracle")
                    if good:
                        phase.record(burst, i, obj, t_recv)

    def telemetry_cost(self, bursts: int) -> float:
        """``serve_sat_rps`` of a ``--no-telemetry`` daemon over the
        default daemon's: closed-loop bursts of the saturate traffic,
        alternating between the two daemons."""
        rates: dict = {"default": [], "bare": []}
        bare = self._start(telemetry=False)
        try:
            i = 0
            for _ in range(bursts):
                for tag, port in (("default", self.daemon.port),
                                  ("bare", bare.port)):
                    base = i
                    _sent, lines, secs = asyncio.run(_closed_loop(
                        port, lambda j: self.frame("saturate", base + j),
                        CFG["window"], CFG["saturate_burst"]))
                    rates[tag].append(len(lines) / secs)
                    i += CFG["saturate_burst"]
        finally:
            bare.stop()
        return median(rates["bare"]) / median(rates["default"])


class _Burst:
    """One burst's raw record: request ids from ``base``, send and due
    times, and the raw response lines with their arrival times."""

    def __init__(self, base: int, sent: list, lines: list, due=None,
                 seconds: float = 0.0) -> None:
        self.base = base
        self.sent = sent
        self.lines = lines
        self.due = due
        self.seconds = seconds
        self.ok = 0  # responses that passed the oracle check

    def decode(self):
        for t, line in self.lines:
            obj = json.loads(line)
            yield obj["id"], obj, t


class _ServePhase(Phase):
    kind = ""

    def __init__(self, group: Serve) -> None:
        super().__init__(f"serve.{self.kind}")
        self.group = group
        self.bursts: list[_Burst] = []
        self.rows = self.flushes = 0
        self.paths = {"2d": 0, "ragged": 0, "loop": 0}
        self._next = 0

    def _stats_delta(self, s0: dict, s1: dict) -> None:
        c0, c1 = s0["coalescing"], s1["coalescing"]
        self.rows += c1["rows"] - c0["rows"]
        self.flushes += c1["flushes"] - c0["flushes"]
        for path in self.paths:
            self.paths[path] += c1["paths"][path] - c0["paths"][path]

    def record(self, burst: _Burst, i: int, obj: dict, t_recv: int) -> None:
        """A checked successful response (hook for the phase's stats)."""


class OpenLoop(_ServePhase):
    """A burst of requests at the fixed offered rate; latency counts
    from each request's due time."""

    kind = "open"

    def __init__(self, group: Serve) -> None:
        super().__init__(group)
        self.latency_ms: list[float] = []
        self.timing = {"coalesce_ms": [], "queue_ms": [], "execute_ms": []}

    def step(self, tr: Tracer, tally: Tally) -> None:
        port = self.group.daemon.port
        rate = CFG["offered_rps"]
        n = _open_burst_len()
        base = self._next
        frames = [self.group.frame("open", base + i) for i in range(n)]
        s0 = _stats(tr, port)
        span = tr.begin("gen/open")
        due, sent, lines = asyncio.run(_open_loop(port, frames, rate))
        _request_spans(tr, sent, lines, base)
        tr.end(span)
        self._stats_delta(s0, _stats(tr, port))
        self.bursts.append(_Burst(base, sent, lines, due=due))
        self._next += n

    def record(self, burst: _Burst, i: int, obj: dict, t_recv: int) -> None:
        self.latency_ms.append((t_recv - burst.due[i - burst.base]) / 1e6)
        timing = obj.get("timing")
        if timing:
            for key, vals in self.timing.items():
                vals.append(timing[key])


class Saturate(_ServePhase):
    """A closed-loop burst with a fixed in-flight window."""

    kind = "saturate"

    def step(self, tr: Tracer, tally: Tally) -> None:
        port = self.group.daemon.port
        base = self._next
        s0 = _stats(tr, port)
        span = tr.begin("gen/saturate")
        sent, lines, secs = asyncio.run(_closed_loop(
            port, lambda j: self.group.frame("saturate", base + j),
            CFG["window"], CFG["saturate_burst"]))
        _request_spans(tr, sent, lines, base)
        tr.end(span)
        self._stats_delta(s0, _stats(tr, port))
        self.bursts.append(_Burst(base, sent, lines, seconds=secs))
        self._next += len(sent)

    def record(self, burst: _Burst, i: int, obj: dict, t_recv: int) -> None:
        burst.ok += 1

    def rate(self) -> float:
        """Successful requests per second over every burst of the run."""
        return (sum(b.ok for b in self.bursts)
                / sum(b.seconds for b in self.bursts))


def _request_spans(tr: Tracer, sent: list, lines: list, base: int) -> None:
    """Spans for the time the daemon had requests in flight: the union
    of every request's send-to-response interval, one span per busy
    stretch (requests overlap, so one span per request would count the
    same wall time many times)."""
    if not tr.enabled:
        return
    got = {}
    for t, line in lines:
        got[json.loads(line)["id"] - base] = t
    busy = sorted((s, got[i]) for i, s in enumerate(sent) if i in got)
    cur = None
    for s, e in busy:
        if cur is not None and s <= cur[1]:
            cur[1] = max(cur[1], e)
            continue
        if cur is not None:
            tr.add("serve.server/in_flight", *cur)
        cur = [s, e]
    if cur is not None:
        tr.add("serve.server/in_flight", *cur)


def end_to_end(phases: dict) -> dict:
    lat = phases["serve.open"].latency_ms
    return {
        "serve_p50_ms": percentile(lat, 50),
        "serve_p99_ms": percentile(lat, 99),
        "serve_sat_rps": phases["serve.saturate"].rate(),
    }


def per_layer(phases: dict) -> dict:
    op, sat = phases["serve.open"], phases["serve.saturate"]
    late = [(s - d) / 1e6 for b in op.bursts for s, d in zip(b.sent, b.due)]
    out = {
        "gen.late_ms.p99": percentile(late, 99),
        "gen.late_ms.max": max(late),
        "serve.coalescing_ratio": op.rows / op.flushes if op.flushes else 0.0,
        "serve.rows_per_flush": sat.rows / sat.flushes if sat.flushes else 0.0,
    }
    for key, vals in op.timing.items():
        out[f"serve.{key[:-3]}_ms.p50"] = percentile(vals, 50)
        out[f"serve.{key[:-3]}_ms.p99"] = percentile(vals, 99)
    for path in op.paths:
        out[f"serve.flush.{path}"] = op.paths[path] + sat.paths[path]
    return out


def protocol_costs(tr: Tracer, group: Serve, phases: dict) -> dict:
    """Per-request cost of ``decode``, ``validate_execute`` and
    ``encode``, in-process, on the workload's own frames and
    responses, per n (µs, median)."""
    from repro.serve import protocol

    cap = CFG["protocol_samples"]
    frames: dict = {}
    responses: dict = {}
    for phase in (phases["serve.open"], phases["serve.saturate"]):
        for burst in phase.bursts:
            for i, obj, _t in burst.decode():
                if not obj.get("ok"):
                    continue
                n = obj["n"]
                if len(frames.setdefault(n, [])) < cap:
                    frames[n].append(group.frame(phase.kind, i).rstrip(b"\n"))
                    responses.setdefault(n, []).append(obj)
    out = {}
    for n in sorted(frames):
        dec, val, enc = [], [], []
        span = tr.begin("bench/protocol")
        for raw in frames[n]:
            t = tr.begin("serve.protocol/decode")
            obj = protocol.decode(raw)
            dec.append(tr.end(t))
            t = tr.begin("serve.protocol/validate")
            protocol.validate_execute(obj)
            val.append(tr.end(t))
        for obj in responses[n]:
            t = tr.begin("serve.protocol/encode")
            protocol.encode(obj)
            enc.append(tr.end(t))
        tr.end(span)
        out[f"serve.decode_us.{n}"] = median(dec)
        out[f"serve.validate_us.{n}"] = median(val)
        out[f"serve.encode_us.{n}"] = median(enc)
    return out
