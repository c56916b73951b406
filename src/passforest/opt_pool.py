"""The parent's side of ``opt_worker``: finding libLLVM, a worker pool, states.

``OptBackend`` imports this module on its first evaluation. When
``linked_libllvm`` finds the shared libLLVM that the ``opt`` binary
links, a ``WorkerPool`` runs its requests in long-lived ``opt_worker``
processes that load it; each request goes to an idle worker, or to a
new one when none is idle. A ``StateIndex`` records the module states
that workers printed to files after a pipeline's leading units, so that
any worker can resume a later pipeline that starts with the same units.
"""

import hashlib
import itertools
import os
import select
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .opt_worker import HEADER, write_frame

_WORKER_SCRIPT = str(Path(__file__).with_name("opt_worker.py"))

# Bytes of state files a StateIndex keeps before it evicts the least
# recently used. A state of bench/data/checksum.ll is about 5 KB.
STATE_BUDGET_BYTES = 64 << 20
# Keys a StateIndex keeps in each of its tables, states and prefixes seen
# once, so that its memory stays under about 2 MB for small states too.
# A fresh opt-tune tune reaches about 700 prefixes.
KEY_LIMIT = 1 << 13


def linked_libllvm(opt: str) -> Optional[str]:
    """The libLLVM shared library that the ``opt`` executable links, if any.

    Reads the ELF dynamic section: the first ``DT_NEEDED`` entry named
    ``libLLVM*``, found in the ``DT_RUNPATH``/``DT_RPATH`` directories
    (``$ORIGIN`` expanded) or else left to the dynamic loader's search.
    A script, a statically linked binary or a missing file gives None.
    """
    exe = shutil.which(opt)
    if exe is None:
        return None
    exe = os.path.realpath(exe)
    try:
        with open(exe, "rb") as fh:
            needed, paths = _dynamic_entries(fh)
    except (OSError, struct.error, ValueError, StopIteration):
        return None  # not a readable ELF file with a string table
    name = next((n for n in needed if n.startswith("libLLVM")), None)
    if name is None:
        return None
    origin = os.path.dirname(exe)
    for entry in paths:
        for directory in entry.split(":"):
            directory = directory.replace("${ORIGIN}", origin).replace("$ORIGIN", origin)
            candidate = os.path.join(directory, name)
            if directory and os.path.exists(candidate):
                return candidate
    return name


def _dynamic_entries(fh):
    """(DT_NEEDED names, DT_RUNPATH/DT_RPATH strings) of an ELF file.

    Program header types: PT_LOAD 1, PT_DYNAMIC 2. Dynamic tags:
    DT_NEEDED 1, DT_STRTAB 5, DT_RPATH 15, DT_RUNPATH 29.
    """
    ident = fh.read(16)
    if ident[:4] != b"\x7fELF":
        raise ValueError("not an ELF file")
    wide = ident[4] == 2
    order = "<" if ident[5] == 1 else ">"
    word = "Q" if wide else "I"
    header = fh.read(48 if wide else 36)
    if wide:
        phoff, = struct.unpack_from(order + "Q", header, 16)
        phentsize, phnum = struct.unpack_from(order + "HH", header, 38)
    else:
        phoff, = struct.unpack_from(order + "I", header, 12)
        phentsize, phnum = struct.unpack_from(order + "HH", header, 26)
    # (type, file offset, virtual address, file size) per program header
    fields = order + ("IIQQQQ" if wide else "IIIII")
    segments = []
    for i in range(phnum):
        fh.seek(phoff + i * phentsize)
        raw = struct.unpack(fields, fh.read(struct.calcsize(fields)))
        if wide:
            segments.append((raw[0], raw[2], raw[3], raw[5]))
        else:
            segments.append((raw[0], raw[1], raw[2], raw[4]))
    dynamic = next(((off, size) for kind, off, _, size in segments if kind == 2), None)
    if dynamic is None:
        return [], []
    fh.seek(dynamic[0])
    entry = struct.Struct(order + ("q" if wide else "i") + word)
    table = fh.read(dynamic[1])
    tags = [entry.unpack_from(table, i)
            for i in range(0, len(table) - entry.size + 1, entry.size)]
    strtab = next(value for tag, value in tags if tag == 5)
    base = next(off + strtab - vaddr for kind, off, vaddr, size in segments
                if kind == 1 and vaddr <= strtab < vaddr + size)

    def string(offset):
        fh.seek(base + offset)
        return fh.read(4096).split(b"\0", 1)[0].decode("utf-8", "replace")

    needed = [string(value) for tag, value in tags if tag == 1]
    paths = [string(value) for tag, value in tags if tag in (15, 29)]
    return needed, paths


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

    def request(self, kind: bytes, payload: bytes, timeout: float) -> Tuple[bytes, bytes]:
        """Send one request frame and wait for its reply frame.

        A worker that dies first gives (``E``, ``<exit code>\\n<stderr>``)
        with the stderr it wrote during this request. Past ``timeout``
        seconds, raises TimeoutError and leaves the worker to be killed.
        """
        offset = os.fstat(self.stderr.fileno()).st_size
        try:
            write_frame(self.proc.stdin.fileno(), kind, payload)
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
    """Idle ``opt_worker`` processes of one backend, started on demand.

    Each request takes an idle worker or starts one, so there are never
    more workers than concurrent requests. A worker that dies or times
    out is discarded, and the next request starts a fresh one. A worker
    that cannot use the library marks the pool unusable.
    """

    def __init__(self, opt: str, library: str):
        self.opt = opt
        self.library = library
        self.usable = True
        self._idle: List[_Worker] = []
        self._live = set()
        self._lock = threading.Lock()

    def run(
        self,
        path: str,
        pipeline: str,
        timeout: float,
        state: str = "",
        steps: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> Optional[subprocess.CompletedProcess]:
        """What ``opt -S -passes=<pipeline> <path> -o -`` would give.

        With ``steps``, the worker resumes from ``state`` (the input
        when empty) and runs the remaining (unit, file to save to) pairs,
        as ``opt_worker`` describes. None when the library turned out
        unusable or ``state`` could not be read; ``usable`` tells which.
        A timeout raises TimeoutExpired naming the command.
        """
        cmd = [self.opt, "-S", f"-passes={pipeline}", path, "-o", "-"]
        if steps is None:
            request, fields = b"P", [path, pipeline]
        else:
            request, fields = b"S", [path, pipeline, state, *itertools.chain.from_iterable(steps)]
        worker = self._acquire()
        try:
            kind, payload = worker.request(request, "\0".join(fields).encode("utf-8"), timeout)
        except TimeoutError:
            self._discard(worker)
            raise subprocess.TimeoutExpired(cmd, timeout) from None
        except BaseException:
            self._discard(worker)
            raise
        if kind == b"U":
            self.usable = False
            self._discard(worker)
            return None
        if worker.proc.returncode is None:
            with self._lock:
                self._idle.append(worker)
        else:
            self._discard(worker)
        if kind == b"R":
            return None
        text = payload.decode("utf-8", "replace")
        if kind == b"O":
            return subprocess.CompletedProcess(cmd, 0, text, "")
        code, _, stderr = text.partition("\n")
        return subprocess.CompletedProcess(cmd, int(code), "", stderr)

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
        """Kill and reap every worker; runs when the backend is collected or at exit."""
        with self._lock:
            workers, self._live, self._idle = list(self._live), set(), []
        for worker in workers:
            worker.close()


class StateIndex:
    """Module states after leading units, as files in a directory of its own.

    A key stands for (input path, size, modification time in ns, printed
    prefix units), hashed to 16 bytes so the index stays small; its value
    is the file a worker printed that module to. A prefix is saved on its
    second sighting: most prefixes are never reached again, and each one
    saved costs a print and a file. The files stay under
    ``STATE_BUDGET_BYTES`` in total and ``KEY_LIMIT`` in number: adding
    one evicts the least recently used, and evicting deletes the file. The index is the parent's, and
    every worker reads and writes the files, so the states outlive any
    worker and are shared by all of them. ``close`` deletes the directory.
    """

    def __init__(self):
        self.directory = tempfile.mkdtemp(prefix="passforest-states-")
        self._numbers = itertools.count()
        # key -> (file number, size in bytes), least recently used first
        self._files: "OrderedDict[bytes, Tuple[int, int]]" = OrderedDict()
        # keys seen once and not saved, least recently seen first
        self._seen: "OrderedDict[bytes, None]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @staticmethod
    def keys(path: str, stamp: Tuple[int, int], units: Sequence[str]) -> List[bytes]:
        """The key of each leading run of ``units``, shortest first."""
        digest = hashlib.blake2b(f"{path}\0{stamp[0]}\0{stamp[1]}".encode("utf-8"), digest_size=16)
        keys = []
        for unit in units:
            digest.update(f"\0{unit}".encode("utf-8"))
            keys.append(digest.digest())
        return keys

    def file(self, number: int) -> str:
        return os.path.join(self.directory, str(number))

    def plan(self, keys: Sequence[bytes]) -> Tuple[int, str, List[Optional[int]]]:
        """Where a run of the units behind ``keys`` resumes, and what it saves.

        Returns (i, file, saves): the longest prefix ``keys[:i]`` with a
        state and its file, (0, "") if none, and for each key after it
        the number of a new file to save that state to, or None for a
        key not seen before, which is only remembered.
        """
        with self._lock:
            done, state = 0, ""
            for i in range(len(keys), 0, -1):
                entry = self._files.get(keys[i - 1])
                if entry is not None:
                    self._files.move_to_end(keys[i - 1])
                    done, state = i, self.file(entry[0])
                    break
            saves: List[Optional[int]] = []
            for key in keys[done:]:
                if key in self._seen:
                    del self._seen[key]
                    saves.append(next(self._numbers))
                else:
                    self._seen[key] = None
                    if len(self._seen) > KEY_LIMIT:
                        self._seen.popitem(last=False)
                    saves.append(None)
        return done, state, saves

    def add(self, saved: Iterable[Tuple[bytes, int]]) -> None:
        """Index each (key, file number) whose file a worker wrote.

        A file that does not exist is skipped; one whose key another
        request indexed first is deleted.
        """
        for key, number in saved:
            try:
                size = os.stat(self.file(number)).st_size
            except OSError:
                continue
            with self._lock:
                if key in self._files:
                    evicted = [number]
                else:
                    self._files[key] = (number, size)
                    self._bytes += size
                    evicted = []
                    while self._bytes > STATE_BUDGET_BYTES or len(self._files) > KEY_LIMIT:
                        old, old_size = self._files.popitem(last=False)[1]
                        self._bytes -= old_size
                        evicted.append(old)
            for old in evicted:
                _unlink(self.file(old))

    def drop(self, key: bytes, name: str) -> None:
        """Forget ``key`` if it still names the file ``name``, and delete that file."""
        with self._lock:
            entry = self._files.get(key)
            if entry is not None and self.file(entry[0]) == name:
                del self._files[key]
                self._bytes -= entry[1]
        _unlink(name)

    def close(self) -> None:
        """Delete every state and the directory; runs with the backend's finalizer."""
        with self._lock:
            self._files.clear()
            self._bytes = 0
        shutil.rmtree(self.directory, ignore_errors=True)


def _unlink(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass
