"""The parent's side of ``opt_worker``: finding libLLVM, a worker pool, states.

``OptBackend`` imports this module on its first evaluation. When
``linked_libllvm`` finds the shared libLLVM that the ``opt`` binary
links (``ldd`` names it), a ``WorkerPool`` runs its requests in
long-lived ``opt_worker`` processes that load it; each request goes to
an idle worker, or to a new one when none is idle. ``WorkerPool.run``
computes, counted, what ``opt -S -passes=module(<units>)`` prints, where
the units are the texts of a forest's ``forest.module_steps``. A request
carries the input path, the state to resume from and the units that
remain, each with the file to save its state to. A worker replies with
the digest and the instruction count of the module it printed, never the
module itself. The pool's ``StateIndex`` is keyed by module content:
which module each run of units turned a known module into, the count of
each final module, and the files that workers saved modules to.
``WorkerPool.run`` walks it, so a pipeline whose every step is known
costs no worker call, and any other resumes in any worker from the
deepest module on its walk with a saved file.
"""

import hashlib
import itertools
import os
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .evaluation import exit_detail
from .opt_worker import HEADER, write_frame

_WORKER_SCRIPT = str(Path(__file__).with_name("opt_worker.py"))

# Bytes of state files a StateIndex keeps before it evicts the least
# recently used. A state of bench/data/checksum.ll is about 5 KB.
STATE_BUDGET_BYTES = 64 << 20
# Keys a StateIndex keeps in each of its tables (segments, counts, files
# and segments seen once), so that its memory stays under about 8 MB for
# small states too. A fresh opt-tune tune fills about 700 keys of seen.
KEY_LIMIT = 1 << 13


def linked_libllvm(opt: str) -> Optional[str]:
    """The libLLVM shared library that the ``opt`` executable links, if any.

    Asks ``ldd``, which runs the loader that ``opt`` itself runs, so
    RUNPATH, ``$ORIGIN`` and the loader cache resolve as they do for
    ``opt``: the first ``libLLVM*`` entry that resolves to an absolute
    path. A script, a statically linked binary, a missing file, a
    library the loader cannot find or no ``ldd`` on PATH gives None.
    """
    exe, ldd = shutil.which(opt), shutil.which("ldd")
    if exe is None or ldd is None:
        return None
    try:
        listing = subprocess.run([ldd, os.path.realpath(exe)], capture_output=True,
                                 encoding="utf-8", errors="replace", timeout=60).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    for line in listing.splitlines():
        # "<name> => <path> (<address>)", "<name> => not found" or "<path> (<address>)"
        name, arrow, found = line.strip().partition(" => ")
        path = (found if arrow else name).split(" (")[0]
        if os.path.basename(name).startswith("libLLVM") and os.path.isabs(path):
            return path
    return None


class _Worker:
    """One ``opt_worker`` process with its pipes and its stderr file.

    Stderr goes to an unlinked temporary file, so nothing has to drain it
    and a dead worker's diagnostic can be read after it exits.
    """

    def __init__(self, opt: str, library: str):
        self.stderr = tempfile.TemporaryFile()
        replies, reply_end = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", _WORKER_SCRIPT, opt, library, str(reply_end)],
                stdin=subprocess.PIPE,
                stdout=subprocess.DEVNULL,
                stderr=self.stderr,
                pass_fds=(reply_end,),
            )
        except BaseException:
            os.close(replies)
            self.stderr.close()
            raise
        finally:
            os.close(reply_end)
        self.replies = replies

    def request(self, payload: bytes, timeout: float) -> Tuple[bytes, bytes]:
        """Send one request frame and wait for its reply frame.

        A worker that dies first gives (``E``, ``<exit code>\\n<stderr>``)
        with the stderr it wrote during this request. Past ``timeout``
        seconds, raises TimeoutError and leaves the worker to be killed.
        """
        offset = os.fstat(self.stderr.fileno()).st_size
        try:
            write_frame(self.proc.stdin.fileno(), b"S", payload)
        except BrokenPipeError:
            pass  # it died already; the reply pipe is at end-of-file
        reply = self._read_reply(time.monotonic() + timeout)
        if reply is not None:
            return reply
        code = self.proc.wait()
        size = os.fstat(self.stderr.fileno()).st_size - offset
        return b"E", f"{code}\n".encode("utf-8") + os.pread(self.stderr.fileno(), size, offset)

    def _read_reply(self, deadline: float) -> Optional[Tuple[bytes, bytes]]:
        """The next frame, or None when the reply pipe reaches end-of-file."""
        data = bytearray()
        poller = select.poll()
        poller.register(self.replies, select.POLLIN)
        while len(data) < HEADER.size or len(data) < HEADER.size + HEADER.unpack_from(data)[1]:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not poller.poll(remaining * 1000):
                raise TimeoutError
            chunk = os.read(self.replies, 1 << 20)
            if not chunk:
                return None
            data += chunk
        return HEADER.unpack_from(data)[0], bytes(data[HEADER.size:])

    def close(self) -> None:
        """Kill and reap the process and release its pipes and file."""
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        os.close(self.replies)
        self.stderr.close()


class WorkerPool:
    """Idle ``opt_worker`` processes of one backend and the states they saved.

    Each request takes an idle worker or starts one, so there are never
    more workers than concurrent requests. A worker that dies or times
    out is discarded, and the next request starts a fresh one. A worker
    that cannot use the library marks the pool unusable. ``states`` is
    the pool's ``StateIndex``; ``close`` deletes it with the workers.
    """

    def __init__(self, opt: str, library: str):
        self.opt = opt
        self.library = library
        self.usable = True
        self.states = StateIndex()
        self._idle: List[_Worker] = []
        self._live = set()
        self._lock = threading.Lock()

    def run(
        self,
        path: str,
        stamp: Tuple[int, int],
        units: Sequence[str],
        timeout: float,
    ) -> Union[int, str, None]:
        """What ``opt -S -passes=module(<units>) <path> -o -`` would give, counted.

        ``stamp`` is the input's (size, modification time in ns) and
        ``units`` are the texts of a forest's ``forest.module_steps``.
        No units give the count of ``opt -S <path> -o -``: a worker
        verifies and prints the input. The index never answers that, as
        no segment leads to it; ``OptBackend.original_count`` memoizes it.
        Returns the instruction count, or the detail of the failure
        (``opt exited <code>: <first stderr line>``, or why the output is
        malformed). When ``StateIndex.plan`` knows every step of the
        units from the input, the index answers and no worker runs.
        Otherwise a worker resumes from the deepest known module with a
        saved state, saves the states the plan asks for and replies with
        the digest and count of the module it printed, and the index
        learns the steps. A state the worker cannot read is dropped, and
        the same units run again from the input, saving nothing. None
        only when the library turned out unusable. A timeout raises
        TimeoutError.
        """
        states = self.states
        origin = states.origin(path, stamp)
        plan = states.plan(origin, units)
        if plan.answer is not None:
            return plan.answer

        def request(plan: Plan) -> Tuple[bytes, bytes]:
            fields = [path, plan.state]
            for unit, number in zip(units[plan.start:], plan.saves):
                fields += [unit, "" if number is None else states.file(number)]
            return self._request(fields, timeout)

        try:
            kind, payload = request(plan)
        except TimeoutError:
            states.learn(plan, units)  # the states saved before it
            raise
        if kind == b"R":
            states.drop(plan.node, plan.state)
            plan = Plan(None, 0, origin, "", [None] * len(units))
            kind, payload = request(plan)
        if kind == b"U":
            return None
        if kind == b"O":
            text = payload[16:].decode("utf-8", "replace")
            outcome = int(text) if text.isdigit() else text
            states.learn(plan, units, payload[:16], outcome)
            return outcome
        code, _, stderr = payload.decode("utf-8", "replace").partition("\n")
        detail = exit_detail(int(code), stderr)
        # opt fails the same way every time when it exits 1 or aborts
        # (licm); a kill or a crash by another signal may not recur.
        states.learn(plan, units, None, detail if code in ("1", "-6") else None)
        return detail

    def _request(self, fields: Sequence[str], timeout: float) -> Tuple[bytes, bytes]:
        """The reply to one request from an idle or new worker; ``U`` marks the pool unusable."""
        worker = self._acquire()
        try:
            kind, payload = worker.request(os.fsencode("\0".join(fields)), timeout)
        except BaseException:
            self._discard(worker)
            raise
        if kind == b"U":
            self.usable = False
        if kind != b"U" and worker.proc.returncode is None:
            with self._lock:
                self._idle.append(worker)
        else:
            self._discard(worker)
        return kind, payload

    def _acquire(self) -> _Worker:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        worker = _Worker(self.opt, self.library)
        with self._lock:
            self._live.add(worker)
        return worker

    def _discard(self, worker: _Worker) -> None:
        with self._lock:
            self._live.discard(worker)
        worker.close()

    def close(self) -> None:
        """Kill the workers and delete the states, when the backend is collected or at exit."""
        with self._lock:
            workers, self._live, self._idle = list(self._live), set(), []
        for worker in workers:
            worker.close()
        self.states.close()


class Plan(NamedTuple):
    """How ``WorkerPool.run`` gets the result of some units: from the index
    (``answer``), or from a worker that resumes in ``state`` (the file of
    the module ``node`` after the first ``start`` units, or "" and the
    input's origin) and saves after each remaining unit to the file of
    that number in ``saves``, or nowhere for None."""

    answer: Union[int, str, None]
    start: int
    node: bytes
    state: str
    saves: List[Optional[int]]


class StateIndex:
    """What workers found, keyed by the content of the modules they printed.

    The walk of a pipeline starts at its input's origin, a hash of (path,
    size, modification time in ns), so a file changed in place starts a
    new walk. Four tables, each of at most ``KEY_LIMIT`` keys, least
    recently used first:

    - segments: (an origin or a module digest, the printed units run
      from it) hashed to 16 bytes, to the digest of the module those
      units printed, or to the detail of a failure they end in. A
      failure is kept only when ``opt`` gives it every time;
    - counts: a module digest to its instruction count, or to why it is
      malformed;
    - files: a module digest to the file a worker printed it to. Two
      prefixes that reach the same module share one file. The files stay
      under ``STATE_BUDGET_BYTES`` in total, and evicting one deletes it;
    - seen: the segments reached once and not saved. A state is saved on
      its second sighting: most prefixes are never reached again, and
      each one saved costs a print and a file. A pipeline the index
      answers counts as a sighting too.

    A module gets a digest only where a worker saved it or ended, so a
    walk moves from one such point to the next. The index lives in the
    parent and every worker of the pool reads and writes the files, so
    the states outlive any worker and are shared by all of them.
    ``close`` deletes the directory.
    """

    def __init__(self):
        self.directory = tempfile.mkdtemp(prefix="passforest-states-")
        self._numbers = itertools.count()
        self._segments: "OrderedDict[bytes, Union[bytes, str]]" = OrderedDict()
        self._counts: "OrderedDict[bytes, Union[int, str]]" = OrderedDict()
        # digest -> (file number, size in bytes)
        self._files: "OrderedDict[bytes, Tuple[int, int]]" = OrderedDict()
        self._seen: "OrderedDict[bytes, None]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @staticmethod
    def origin(path: str, stamp: Tuple[int, int]) -> bytes:
        """Where the walk of every pipeline on this input starts."""
        text = os.fsencode(f"{path}\0{stamp[0]}\0{stamp[1]}")
        return hashlib.blake2b(text, digest_size=16).digest()

    @staticmethod
    def keys(node: bytes, units: Sequence[str]) -> List[bytes]:
        """The segment key of each leading run of ``units`` from ``node``, shortest first."""
        digest = hashlib.blake2b(node, digest_size=16)
        keys = []
        for unit in units:
            digest.update(f"\0{unit}".encode("utf-8"))
            keys.append(digest.digest())
        return keys

    def file(self, number: int) -> str:
        return os.path.join(self.directory, str(number))

    def _walk(self, origin: bytes, units: Sequence[str]):
        """Follow the known segments of ``units`` from ``origin``.

        Returns (nodes, keys, failure): the digest of the module after
        ``units[:i]`` for each i a walk reaches (0 gives ``origin``), the
        segment key of ``units[:i]`` from the last node before i, for i
        from 1 to ``len(units)`` (``keys[0]`` is unused), and the failure
        detail the units end in when a segment from a node knows it.
        Call it with the lock held.
        """
        n = len(units)
        nodes, keys, failure = {0: origin}, [b""] * (n + 1), None
        for i in range(n):
            node = nodes.get(i)
            if node is None:
                continue
            for j, key in enumerate(self.keys(node, units[i:]), i + 1):
                keys[j] = key
                found = self._segments.get(key)
                if found is None:
                    continue
                self._segments.move_to_end(key)
                if found.__class__ is bytes:
                    nodes.setdefault(j, found)
                elif j == n:  # a failure answers only the units that end in it
                    failure = found
        return nodes, keys, failure

    def plan(self, origin: bytes, units: Sequence[str]) -> Plan:
        """How to get the result of ``units`` run from ``origin``.

        The answer when the walk reaches the last unit's module and its
        count is known, or a failure the units end in; else the deepest
        node of the walk with a file to resume from (the input when none
        has), and for each unit after it the number of a new file to
        save that state to, on the state's second sighting, or None.
        """
        with self._lock:
            nodes, keys, answer = self._walk(origin, units)
            last = nodes.get(len(units))
            if answer is None and last is not None and last in self._counts:
                self._counts.move_to_end(last)
                answer = self._counts[last]
            start = max((i for i, node in nodes.items() if i and node in self._files), default=0)
            state = ""
            if start:
                self._files.move_to_end(nodes[start])
                state = self.file(self._files[nodes[start]][0])
            saves: List[Optional[int]] = []
            for key in keys[start + 1:]:
                if answer is None and key in self._seen:
                    del self._seen[key]
                    saves.append(next(self._numbers))
                else:
                    self._seen[key] = None
                    self._seen.move_to_end(key)
                    saves.append(None)
            while len(self._seen) > KEY_LIMIT:
                self._seen.popitem(last=False)
        return Plan(answer, start, nodes[start], state, saves)

    def learn(self, plan: Plan, units: Sequence[str], digest: Optional[bytes] = None,
              outcome: Union[int, str, None] = None) -> None:
        """Index what a request made by ``plan`` left.

        Each state it saved whose file exists becomes that module's file,
        unless the module has one already, and the segment to it from the
        previous saved state (or ``plan.node``) is learned. Then the last
        segment: to the printed module ``digest``, whose count or
        malformed message is ``outcome``, or with no digest to the
        failure detail ``outcome``; nothing for None.
        """
        saved = []
        for i, number in enumerate(plan.saves, plan.start + 1):
            if number is not None:
                try:
                    data = Path(self.file(number)).read_bytes()
                except OSError:
                    continue
                saved.append((i, hashlib.blake2b(data, digest_size=16).digest(), number, len(data)))
        evicted = []
        with self._lock:
            node, done = plan.node, plan.start
            for i, module, number, size in saved:
                self._remember(self._segments, self.keys(node, units[done:i])[-1], module)
                if module in self._files:
                    evicted.append(number)
                else:
                    self._files[module] = (number, size)
                    self._bytes += size
                node, done = module, i
            if outcome is not None:
                if done < len(units):
                    end = outcome if digest is None else digest
                    self._remember(self._segments, self.keys(node, units[done:])[-1], end)
                if digest is not None:
                    self._remember(self._counts, digest, outcome)
            while self._bytes > STATE_BUDGET_BYTES or len(self._files) > KEY_LIMIT:
                old, old_size = self._files.popitem(last=False)[1]
                self._bytes -= old_size
                evicted.append(old)
        for number in evicted:
            _unlink(self.file(number))

    @staticmethod
    def _remember(table: OrderedDict, key: bytes, value) -> None:
        table[key] = value
        table.move_to_end(key)
        if len(table) > KEY_LIMIT:
            table.popitem(last=False)

    def drop(self, digest: bytes, name: str) -> None:
        """Forget the file of ``digest`` if it is still ``name``, and delete that file."""
        with self._lock:
            entry = self._files.get(digest)
            if entry is not None and self.file(entry[0]) == name:
                del self._files[digest]
                self._bytes -= entry[1]
        _unlink(name)

    def close(self) -> None:
        """Delete every state and the directory; runs with the pool's ``close``."""
        with self._lock:
            self._files.clear()
            self._bytes = 0
        shutil.rmtree(self.directory, ignore_errors=True)


def _unlink(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass
