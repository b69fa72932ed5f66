"""How a stencil build is described to a node process.

A node pool (:mod:`repro.exec.pools`) keeps node processes between the
runs of the processes backend and is sent every run it takes, its first
included: its processes never run a graph they inherited.  A build with
kernels (:func:`~repro.core.dataflow.build_stencil_graph`) maps its grid
and landing store over a memfd and puts a :class:`Recipe` on the graph
it returns: enough for another process to rebuild the same node-block
graph over the same memory -- the template key and the problem, pickled
(a few KiB), the graph's plan digest to check the rebuild against, and
the descriptor to send over a Unix socket.  A pool's process lets go of
every build it inherited as it starts (:func:`release_builds`).
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import pickle
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..runtime.graph import TaskGraph
    from ..stencil.problem import JacobiProblem
    from .dataflow import BuildResult, StencilKernels


@dataclass(frozen=True, eq=False)
class Recipe:
    """What :func:`rebuild` needs, and the descriptor ``fd`` of the
    build's memfd.  A build makes one only where the host has
    ``os.memfd_create``; it describes the graph it came with for as
    long as every task still runs this build's kernels (chaos wraps
    them) and the descriptor is open."""

    key: tuple
    problem: JacobiProblem
    digest: str
    fd: int
    kernels: StencilKernels
    #: closes ``fd`` once: called by :meth:`close`, else when the
    #: build's mapping goes
    closer: weakref.finalize

    def describes(self, graph: TaskGraph) -> bool:
        bodies = (self.kernels.init_task, self.kernels.stencil_task)
        return self.closer.alive and all(task.kernel in bodies for task in graph)

    def description(self) -> bytes | None:
        """The template key and the problem, pickled; None where the
        problem does not pickle (closures as initial or boundary values,
        or objects whose ``__reduce__`` refuses, such as a
        ``multiprocessing`` event)."""
        try:
            return pickle.dumps((self.key, self.problem), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # whatever the problem's objects raise: not describable
            return None

    def close(self) -> None:
        """Close the descriptor: the build's run is over, and a kept
        result holds its grid, not an open file.  The graph is no longer
        described; a later run of it forks."""
        self.closer()


#: This process's build mappings still alive, each with the finalizer
#: that closes its memfd (:func:`shared_mapping`).
_BUILDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def release_builds() -> None:
    """In a process forked to run only what it is sent later (a pool's
    node): close its copy of every build memfd it inherited and map
    anonymous pages over every build mapping, each at the same address
    (the inherited heap holds views of them), so that it holds no grid
    of its parent's."""
    for memory, closer in list(_BUILDS.items()):
        closer()
        _map_over(memory, -1)


#: ``MAP_FIXED`` on Linux, the one host with ``os.memfd_create`` here
#: (:mod:`mmap` does not export it).
_MAP_FIXED = 0x10


@functools.cache
def _libc_mmap():
    libc_mmap = ctypes.CDLL(None, use_errno=True).mmap
    libc_mmap.restype = ctypes.c_void_p
    libc_mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
                          ctypes.c_int, ctypes.c_long)
    return libc_mmap


def _map_over(memory: mmap.mmap, fd: int) -> None:
    """Replace ``memory``'s pages, at the same address, with a shared
    mapping of ``fd`` -- or, with ``fd`` -1, with private anonymous
    ones: ``memory`` unmaps it when it goes, and holds no descriptor
    meanwhile (``mmap.mmap(fd, n)`` keeps a duplicate open for as long
    as the mapping lives)."""
    anchor = ctypes.c_char.from_buffer(memory)
    address = ctypes.addressof(anchor)
    del anchor  # the buffer export: it would pin the mapping
    flags = (mmap.MAP_SHARED if fd >= 0 else mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    got = _libc_mmap()(address, len(memory), mmap.PROT_READ | mmap.PROT_WRITE,
                       flags | _MAP_FIXED, fd, 0)
    if got != address:
        raise OSError(ctypes.get_errno(), "could not map over the grid's mapping")


def shared_mapping(nbytes: int) -> tuple[mmap.mmap, int | None, weakref.finalize | None]:
    """A build's shared mapping and, where the host has memfd, the
    descriptor behind it with the finalizer that closes it (:meth:`Recipe.close`;
    at the latest, when the mapping goes).  The mapping itself holds no
    descriptor, so a kept grid keeps no file open."""
    if not hasattr(os, "memfd_create"):
        return mmap.mmap(-1, nbytes), None, None
    fd = os.memfd_create("repro-grid", os.MFD_CLOEXEC)
    memory = mmap.mmap(-1, nbytes)
    try:
        os.ftruncate(fd, nbytes)
        _map_over(memory, fd)
    except BaseException:
        os.close(fd)
        raise
    closer = _BUILDS[memory] = weakref.finalize(memory, os.close, fd)
    return memory, fd, closer


def rebuild(description: bytes, memory: mmap.mmap) -> BuildResult:
    """The build a :meth:`Recipe.description` describes, over ``memory``
    (the describing build's mapping, mapped again): its template comes
    from :data:`~repro.core.dataflow.TEMPLATES` when this process has it
    (a forked process inherits the table), else it is made here."""
    from .dataflow import build_stencil_graph

    key, problem = pickle.loads(description)
    spec_type, partition, steps, _iterations, name, boundary_priority, machine, cost = key
    spec = spec_type(problem=problem, partition=partition, steps=steps)
    return build_stencil_graph(spec, machine, cost, name, True, boundary_priority,
                               memory=memory)
