"""The parent's side of ``opt_worker``: finding libLLVM, and a worker pool.

``OptBackend`` imports this module on its first evaluation. When
``linked_libllvm`` finds the shared libLLVM that the ``opt`` binary
links, a ``WorkerPool`` runs its requests in long-lived ``opt_worker``
processes that load it; each request goes to an idle worker, or to a
new one when none is idle.
"""

import os
import select
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from .opt_worker import HEADER, write_frame

_WORKER_SCRIPT = str(Path(__file__).with_name("opt_worker.py"))


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

    def request(self, path: str, pipeline: str, timeout: float) -> Tuple[bytes, bytes]:
        """Send one request and wait for its reply frame.

        A worker that dies first gives (``E``, ``<exit code>\\n<stderr>``)
        with the stderr it wrote during this request. Past ``timeout``
        seconds, raises TimeoutError and leaves the worker to be killed.
        """
        offset = os.fstat(self.stderr.fileno()).st_size
        try:
            write_frame(self.proc.stdin.fileno(), b"P", f"{path}\0{pipeline}".encode("utf-8"))
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
        self, path: str, pipeline: str, timeout: float
    ) -> Optional[subprocess.CompletedProcess]:
        """What ``opt -S -passes=<pipeline> <path> -o -`` would give.

        None when the library turned out unusable. A timeout raises
        TimeoutExpired naming that command.
        """
        cmd = [self.opt, "-S", f"-passes={pipeline}", path, "-o", "-"]
        worker = self._acquire()
        try:
            kind, payload = worker.request(path, pipeline, timeout)
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
