"""The record contract of the request path's messages: the 9P ``T*``
messages, the net ``Net*`` messages and ``SocketAddr``, and
``NvmeOp`` are immutable, compare equal only within their own class,
and ``Twrite`` leaves its ``data`` out of ``==`` and ``hash``."""

import pytest

from repro.fs.ninep import (
    Tclunk, Tfsync, Tmkdir, Topen, Tread, Treaddir, Tremove, Tstat, Twrite,
)
from repro.hw.nvme import NvmeOp
from repro.net.packets import (
    NetClose, NetCloseListener, NetConnect, NetListen, NetSend, SocketAddr,
)
from repro.sim.record import record

RECORDS = [
    Topen("/a", 1), Tclunk(3), Tread(1, 0, 4096, "phi0", 2),
    Twrite(1, 0, 4096, "phi0", 2, b"x"), Tremove("/a"), Tstat("/a"),
    Tmkdir("/a"), Treaddir("/a"), Tfsync(3),
    SocketAddr("host", 80), NetConnect(SocketAddr("host", 80)),
    NetListen(80), NetCloseListener(80), NetSend(3, b"x", 1), NetClose(3),
    NvmeOp("read", 0, 4096, "numa0"),
]


@pytest.mark.parametrize("msg", RECORDS, ids=lambda m: type(m).__name__)
def test_fields_cannot_be_assigned(msg):
    with pytest.raises(AttributeError):
        setattr(msg, msg._fields[0], None)
    with pytest.raises(AttributeError):
        msg.extra = 1


@pytest.mark.parametrize("msg", RECORDS, ids=lambda m: type(m).__name__)
def test_equal_to_a_copy_of_its_own_class_only(msg):
    copy = type(msg)(*msg)
    assert copy == msg and not copy != msg
    assert hash(copy) == hash(msg)
    plain = tuple(msg)
    assert msg != plain and plain != msg
    assert not msg == plain and not plain == msg


@pytest.mark.parametrize("a,b", [
    (Tclunk(3), Tfsync(3)),
    (Tstat("/a"), Tremove("/a")),
    (Tmkdir("/a"), Treaddir("/a")),
    (NetClose(3), Tclunk(3)),
    (NetListen(80), NetCloseListener(80)),
], ids=lambda m: type(m).__name__)
def test_same_values_of_another_class_differ(a, b):
    assert a != b and b != a
    assert not a == b
    assert len({a, b}) == 2


def test_twrite_data_left_out_of_eq_and_hash():
    with_data = Twrite(1, 0, 3, "phi0", 2, b"abc")
    without = Twrite(1, 0, 3, "phi0", 2)
    other = Twrite(1, 0, 3, "phi0", 2, b"xyz")
    assert with_data == without == other
    assert hash(with_data) == hash(without) == hash(other)
    assert with_data != Twrite(1, 0, 3, "phi0", 9, b"abc")


@pytest.mark.parametrize("args", [
    ("trim", 0, 4096, "numa0"),
    ("read", -1, 4096, "numa0"),
    ("write", 0, 0, "numa0"),
    ("write", 0, -5, "phi0"),
])
def test_nvme_op_rejects_bad_commands(args):
    with pytest.raises(ValueError):
        NvmeOp(*args)


def test_record_rejects_uncompared_fields_not_last():
    from typing import NamedTuple

    class Msg(NamedTuple):
        data: bytes
        fid: int

    with pytest.raises(TypeError):
        record(Msg, uncompared=("data",))
