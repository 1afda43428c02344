"""VFS layer: the file-system API applications program against.

Co-processor applications use the same calls regardless of which stack
is mounted underneath — the Solros stub, the virtio ext-FS, the NFS
client, or the host's own file system — mirroring how the paper's
evaluation swaps stacks under unmodified fio/application code.

A backend implements the stateless ``FsBackend`` generator methods;
:class:`Vfs` adds file descriptors, per-fd offsets, open flags
(including the paper's ``O_BUFFER`` extension that forces buffered
I/O, §4.3.2), and syscall-entry overhead billed to the calling core.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..hw.cpu import Core
from .errors import BadFileDescriptor, InvalidArgument

__all__ = [
    "FsBackend",
    "Vfs",
    "OpenFile",
    "O_RDONLY",
    "O_RDWR",
    "O_CREAT",
    "O_TRUNC",
    "O_BUFFER",
]

O_RDONLY = 0x0
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200
# Solros extension (§4.3.2): force host-staged buffered I/O for files
# that benefit from the shared host cache.
O_BUFFER = 0x10000


class FsBackend:
    """Interface implemented by every file-system stack.

    All methods are generators (simulated-time).  ``handle`` is an
    opaque per-open token returned by :meth:`open`.
    """

    name = "abstract"

    def open(self, core: Core, path: str, flags: int) -> Generator:
        raise NotImplementedError

    def close(self, core: Core, handle: Any) -> Generator:
        raise NotImplementedError

    def pread(self, core: Core, handle: Any, offset: int, nbytes: int) -> Generator:
        raise NotImplementedError

    def pwrite(
        self,
        core: Core,
        handle: Any,
        offset: int,
        data: Optional[bytes],
        length: Optional[int],
    ) -> Generator:
        raise NotImplementedError

    def fsync(self, core: Core, handle: Any) -> Generator:
        raise NotImplementedError

    def stat(self, core: Core, path: str) -> Generator:
        raise NotImplementedError

    def unlink(self, core: Core, path: str) -> Generator:
        raise NotImplementedError

    def mkdir(self, core: Core, path: str) -> Generator:
        raise NotImplementedError

    def readdir(self, core: Core, path: str) -> Generator:
        raise NotImplementedError


class OpenFile:
    """One file descriptor's state."""

    __slots__ = ("fd", "path", "flags", "pos", "handle")

    def __init__(self, fd: int, path: str, flags: int, handle: Any):
        self.fd = fd
        self.path = path
        self.flags = flags
        self.pos = 0
        self.handle = handle


class Vfs:
    """File-descriptor table over a backend."""

    def __init__(self, backend: FsBackend):
        self.backend = backend
        self._files: Dict[int, OpenFile] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands

    # ------------------------------------------------------------------
    # Descriptor management
    # ------------------------------------------------------------------
    def open(self, core: Core, path: str, flags: int = O_RDONLY) -> Generator:
        yield core.syscall()
        handle = yield from self.backend.open(core, path, flags)
        fd = self._next_fd
        self._next_fd += 1
        self._files[fd] = OpenFile(fd, path, flags, handle)
        return fd

    def close(self, core: Core, fd: int) -> Generator:
        yield core.syscall()
        entry = self._entry(fd)
        yield from self.backend.close(core, entry.handle)
        del self._files[fd]

    def _entry(self, fd: int) -> OpenFile:
        try:
            return self._files[fd]
        except KeyError:
            raise BadFileDescriptor(f"fd {fd}") from None

    # ------------------------------------------------------------------
    # Data calls
    # ------------------------------------------------------------------
    def read(self, core: Core, fd: int, nbytes: int) -> Generator:
        """Sequential read at the fd offset."""
        entry = self._entry(fd)
        data = yield from self.pread(core, fd, nbytes, entry.pos)
        entry.pos += len(data)
        return data

    def pread(self, core: Core, fd: int, nbytes: int, offset: int) -> Generator:
        if nbytes < 0 or offset < 0:
            raise InvalidArgument("negative size/offset")
        yield core.syscall()
        entry = self._entry(fd)
        data = yield from self.backend.pread(core, entry.handle, offset, nbytes)
        return data

    def write(
        self,
        core: Core,
        fd: int,
        data: Optional[bytes] = None,
        length: Optional[int] = None,
    ) -> Generator:
        entry = self._entry(fd)
        n = yield from self.pwrite(core, fd, entry.pos, data, length)
        entry.pos += n
        return n

    def pwrite(
        self,
        core: Core,
        fd: int,
        offset: int,
        data: Optional[bytes] = None,
        length: Optional[int] = None,
    ) -> Generator:
        if offset < 0:
            raise InvalidArgument("negative offset")
        yield core.syscall()
        entry = self._entry(fd)
        n = yield from self.backend.pwrite(core, entry.handle, offset, data, length)
        return n

    def fsync(self, core: Core, fd: int) -> Generator:
        yield core.syscall()
        entry = self._entry(fd)
        yield from self.backend.fsync(core, entry.handle)

    def seek(self, fd: int, offset: int) -> None:
        """Zero-cost lseek (offset bookkeeping only)."""
        if offset < 0:
            raise InvalidArgument("negative offset")
        self._entry(fd).pos = offset

    # ------------------------------------------------------------------
    # Namespace calls
    # ------------------------------------------------------------------
    def stat(self, core: Core, path: str) -> Generator:
        yield core.syscall()
        result = yield from self.backend.stat(core, path)
        return result

    def unlink(self, core: Core, path: str) -> Generator:
        yield core.syscall()
        yield from self.backend.unlink(core, path)

    def mkdir(self, core: Core, path: str) -> Generator:
        yield core.syscall()
        yield from self.backend.mkdir(core, path)

    def readdir(self, core: Core, path: str) -> Generator:
        yield core.syscall()
        names = yield from self.backend.readdir(core, path)
        return names
