"""Run ``opt`` pipelines inside libLLVM, one request after another.

A worker is a long-lived process that loads the libLLVM an ``opt``
executable links and applies pipelines through the New Pass Manager C
API (``LLVMRunPasses``, LLVM >= 13), so a pipeline costs one library
call instead of one ``opt`` process. It does what ``opt -S
-passes=<pipeline> <file> -o -`` does: parse the file under its path as
buffer name, verify it, build a TargetMachine from the module's triple
(none when there is no triple), run the pipeline, verify again and print
the module. Failures that make ``opt`` exit 1 come back as the exit code
and the message ``opt`` would print; an LLVM abort kills the worker,
as it would kill ``opt``. This module imports only the standard library.

Run as a script::

    python3 opt_worker.py <opt-argv0> <libLLVM path> <reply fd>

Requests arrive on standard input and replies leave on the reply file
descriptor, both as frames: one kind byte, a 4-byte big-endian length,
then the payload. There are two requests:

* ``P``, ``<path>\\0<pipeline>``: run the whole pipeline from the input.
* ``S``, ``<path>\\0<pipeline>\\0<state>\\0<unit>\\0<save>...``: the
  same pipeline, resumed part way. ``<state>`` names a file holding the
  module after the pipeline's leading units, as the worker printed it,
  or is empty to start from the input. Each remaining unit (a module
  manager's child, see ``evaluation.module_units``) comes with a file
  name to print the module to once that unit has run, or an empty one.
  The worker runs the units one ``LLVMRunPasses`` call each up to the
  last one it must save after, and the rest in one call. Each file is
  written under a temporary name and renamed, so a file that exists is
  whole. A state is read from a memory buffer named after the input
  path, so the printed module reads as the input's, and is not verified
  again, as ``opt`` does not verify between passes. Whenever the request
  takes more than one call, the whole pipeline is first parsed on an
  empty module, so a pass name ``opt`` rejects fails before any pass
  runs, as in ``opt``.

The replies are ``O`` (the printed module), ``E`` (``<exit code>\\n<stderr
text>``), ``R`` (the state file could not be read or parsed; nothing
ran) and ``U`` (the library is unusable; the worker then exits). The
worker exits on end-of-file on standard input.
"""

import os
import struct
import sys

# ctypes is imported by main(): the parent process imports this module
# for the frame format and loads no native code. typing is not imported
# at all, since it would add about 10 ms to every worker start.

HEADER = struct.Struct(">cI")

# Targets whose initializers opt runs through InitializeAllTargets; a
# library exports those of the targets it was built with.
_TARGETS = (
    "AArch64", "AMDGPU", "ARC", "ARM", "AVR", "BPF", "CSKY", "DirectX",
    "Hexagon", "Lanai", "LoongArch", "M68k", "MSP430", "Mips", "NVPTX",
    "PowerPC", "RISCV", "SPIRV", "Sparc", "SystemZ", "VE", "WebAssembly",
    "X86", "XCore", "Xtensa",
)

_RETURN_STATUS_ACTION = 2  # LLVMVerifierFailureAction
_ABORT_PROCESS_ACTION = 0


def write_frame(fd: int, kind: bytes, payload: bytes) -> None:
    data = HEADER.pack(kind, len(payload)) + payload
    while data:
        data = data[os.write(fd, data):]


def _read_exact(fd: int, size: int) -> bytes | None:
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def read_frame(fd: int) -> tuple[bytes, bytes] | None:
    """The next frame on ``fd``; None at end-of-file."""
    header = _read_exact(fd, HEADER.size)
    if header is None:
        return None
    kind, size = HEADER.unpack(header)
    payload = _read_exact(fd, size)
    return None if payload is None else (kind, payload)


def _signatures():
    """(argument types, result type) of each C API function a worker calls."""
    ref, text, flag = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    out = ctypes.POINTER(ctypes.c_void_p)
    return {
        "LLVMContextCreate": ([], ref),
        "LLVMContextDispose": ([ref], None),
        "LLVMCreateMemoryBufferWithContentsOfFile": ([text, out, out], flag),
        "LLVMCreateMemoryBufferWithMemoryRangeCopy": ([text, ctypes.c_size_t, text], ref),
        "LLVMModuleCreateWithNameInContext": ([text, ref], ref),
        "LLVMParseIRInContext": ([ref, ref, out, out], flag),
        "LLVMVerifyModule": ([ref, flag, out], flag),
        "LLVMGetTarget": ([ref], text),
        "LLVMGetTargetFromTriple": ([text, out, out], flag),
        "LLVMCreateTargetMachine": ([ref, text, text, text, flag, flag, flag], ref),
        "LLVMDisposeTargetMachine": ([ref], None),
        "LLVMCreatePassBuilderOptions": ([], ref),
        "LLVMRunPasses": ([ref, text, ref, ref], ref),
        "LLVMGetErrorMessage": ([ref], ref),
        "LLVMDisposeErrorMessage": ([ref], None),
        "LLVMPrintModuleToString": ([ref], ref),
        "LLVMPrintModuleToFile": ([ref, text, out], flag),
        "LLVMDisposeMessage": ([ref], None),
        "LLVMDisposeModule": ([ref], None),
    }


class _Library:
    """The libLLVM C API functions a worker calls, without the ``LLVM`` prefix."""

    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        for name, (argtypes, restype) in _signatures().items():
            function = getattr(lib, name)  # AttributeError: symbol missing
            function.argtypes = argtypes
            function.restype = restype
            setattr(self, name[4:], function)
        for target in _TARGETS:
            for part in ("TargetInfo", "Target", "TargetMC"):
                init = getattr(lib, f"LLVMInitialize{target}{part}", None)
                if init is not None:
                    init.argtypes = []
                    init.restype = None
                    init()
        self.options = self.CreatePassBuilderOptions()

    def message(self, pointer) -> str:
        """Take ownership of a C string from the library."""
        if not pointer.value:
            return ""
        text = ctypes.string_at(pointer.value).decode("utf-8", "replace")
        self.DisposeMessage(pointer)
        return text

    def target_machine(self, triple: bytes):
        """A TargetMachine for ``triple`` as opt builds it, or None."""
        if not triple:
            return None
        target, error = ctypes.c_void_p(), ctypes.c_void_p()
        if self.GetTargetFromTriple(triple, ctypes.byref(target), ctypes.byref(error)):
            self.message(error)
            return None
        # no CPU or features, CodeGenOpt::None, default reloc and code model
        return self.CreateTargetMachine(target, triple, b"", b"", 0, 0, 0) or None

    def run(self, opt: str, path: bytes, pipeline: bytes, state: bytes = b"",
            steps: list | None = None) -> tuple[bytes, bytes]:
        """One request: (``O``, printed module), (``E``, exit code and stderr)
        or (``R``, empty) when ``state`` cannot be read or parsed.

        Without ``steps`` the whole pipeline runs from the input in one
        call; with them, the (unit, file to save to) pairs that remain
        after ``state``, or after the input when ``state`` is empty.
        """
        shown = path.decode("utf-8", "replace")
        context = self.ContextCreate()
        try:
            buffer, module, text = ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_void_p()
            if state:
                buffer = self._state_buffer(state, path)
                if not buffer or self.ParseIRInContext(
                        context, buffer, ctypes.byref(module), ctypes.byref(text)):
                    self.message(text)
                    return b"R", b""
            else:
                read = self.CreateMemoryBufferWithContentsOfFile
                if read(path, ctypes.byref(buffer), ctypes.byref(text)):
                    reason = self.message(text)
                    return _exited(1, f"{opt}: {shown}: error: Could not open input file: {reason}")
                if self.ParseIRInContext(context, buffer, ctypes.byref(module), ctypes.byref(text)):
                    return _exited(1, f"{opt}: {self.message(text)}")
            try:
                if not state:
                    broken = self.VerifyModule(module, _RETURN_STATUS_ACTION, ctypes.byref(text))
                    details = self.message(text)
                    if broken:
                        return _exited(1, f"{details}{opt}: {shown}: error: input module is broken!")
                return self._optimize(opt, context, module, pipeline, steps)
            finally:
                self.DisposeModule(module)
        finally:
            self.ContextDispose(context)

    def _state_buffer(self, state: bytes, path: bytes):
        """A copy of the state file in a buffer named ``path``; None if unreadable."""
        try:
            with open(state, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        return self.CreateMemoryBufferWithMemoryRangeCopy(data, len(data), path)

    def _optimize(self, opt: str, context, module, pipeline: bytes,
                  steps: list | None) -> tuple[bytes, bytes]:
        machine = self.target_machine(self.GetTarget(module))
        try:
            error = self._run_passes(context, module, pipeline, steps, machine)
        finally:
            if machine:
                self.DisposeTargetMachine(machine)
        if error:
            pointer = ctypes.c_void_p(self.GetErrorMessage(error))
            reason = ctypes.string_at(pointer.value).decode("utf-8", "replace")
            self.DisposeErrorMessage(pointer)
            return _exited(1, f"{opt}: {reason}")
        # A broken result aborts here, as opt's closing verifier pass does.
        self.VerifyModule(module, _ABORT_PROCESS_ACTION, None)
        pointer = ctypes.c_void_p(self.PrintModuleToString(module))
        printed = ctypes.string_at(pointer.value)
        self.DisposeMessage(pointer)
        if steps and steps[-1][1]:
            _save(steps[-1][1], lambda part: _write(part, printed))
        return b"O", printed

    def _run_passes(self, context, module, pipeline: bytes, steps: list | None, machine):
        """Run the passes; the error of the first call that fails, or None."""
        if steps is None:
            return self.RunPasses(module, pipeline, machine, self.options)
        # Units up to the last intermediate save run one call each.
        cut = max((i + 1 for i, (_, save) in enumerate(steps[:-1]) if save), default=0)
        if cut:
            empty = self.ModuleCreateWithNameInContext(b"", context)
            try:
                error = self.RunPasses(empty, pipeline, machine, self.options)
            finally:
                self.DisposeModule(empty)
            if error:
                return error
        for unit, save in steps[:cut]:
            error = self.RunPasses(module, b"module(" + unit + b")", machine, self.options)
            if error:
                return error
            if save:
                _save(save, lambda part: self._print_to_file(module, part))
        rest = [unit for unit, _ in steps[cut:]]
        if not rest:
            return None
        return self.RunPasses(module, b"module(" + b",".join(rest) + b")", machine, self.options)

    def _print_to_file(self, module, name: bytes) -> bool:
        text = ctypes.c_void_p()
        failed = self.PrintModuleToFile(module, name, ctypes.byref(text))
        self.message(text)
        return not failed


def _write(name: bytes, data: bytes) -> bool:
    try:
        with open(name, "wb") as fh:
            fh.write(data)
    except OSError:
        return False
    return True


def _save(name: bytes, write) -> None:
    """``write(<name>.part)``, then rename it to ``name`` if it succeeded."""
    part = name + b".part"
    try:
        if write(part):
            os.rename(part, name)
        else:
            os.unlink(part)
    except OSError:
        pass


def _exited(code: int, stderr: str) -> tuple[bytes, bytes]:
    return b"E", f"{code}\n{stderr}".encode("utf-8")


def main(argv) -> int:
    global ctypes
    import ctypes

    opt, library, reply = argv[1], argv[2], int(argv[3])
    try:
        llvm = _Library(library)
    except (OSError, AttributeError) as exc:
        write_frame(reply, b"U", str(exc).encode("utf-8", "replace"))
        return 0
    while True:
        frame = read_frame(0)
        if frame is None:
            return 0
        kind, payload = frame
        if kind == b"S":
            path, pipeline, state, *rest = payload.split(b"\0")
            steps = list(zip(rest[::2], rest[1::2]))
            write_frame(reply, *llvm.run(opt, path, pipeline, state, steps))
        else:
            path, pipeline = payload.split(b"\0", 1)
            write_frame(reply, *llvm.run(opt, path, pipeline))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
