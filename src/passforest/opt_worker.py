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
then the payload. A request (``P``) is ``<path>\\0<pipeline>``. The
replies are ``O`` (the printed module), ``E`` (``<exit code>\\n<stderr
text>``) and ``U`` (the library is unusable; the worker then exits).
The worker exits on end-of-file on standard input.
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

    def run(self, opt: str, path: bytes, pipeline: bytes) -> tuple[bytes, bytes]:
        """One request: (``O``, printed module) or (``E``, exit code and stderr)."""
        shown = path.decode("utf-8", "replace")
        context = self.ContextCreate()
        try:
            buffer, module, text = ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_void_p()
            read = self.CreateMemoryBufferWithContentsOfFile
            if read(path, ctypes.byref(buffer), ctypes.byref(text)):
                reason = self.message(text)
                return _exited(1, f"{opt}: {shown}: error: Could not open input file: {reason}")
            if self.ParseIRInContext(context, buffer, ctypes.byref(module), ctypes.byref(text)):
                return _exited(1, f"{opt}: {self.message(text)}")
            try:
                return self._optimize(opt, shown, module, pipeline)
            finally:
                self.DisposeModule(module)
        finally:
            self.ContextDispose(context)

    def _optimize(self, opt: str, shown: str, module, pipeline: bytes) -> tuple[bytes, bytes]:
        text = ctypes.c_void_p()
        broken = self.VerifyModule(module, _RETURN_STATUS_ACTION, ctypes.byref(text))
        details = self.message(text)
        if broken:
            return _exited(1, f"{details}{opt}: {shown}: error: input module is broken!")
        machine = self.target_machine(self.GetTarget(module))
        try:
            error = self.RunPasses(module, pipeline, machine, self.options)
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
        return b"O", printed


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
        path, pipeline = frame[1].split(b"\0", 1)
        write_frame(reply, *llvm.run(opt, path, pipeline))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
