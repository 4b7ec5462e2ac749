"""Tests for local storage, the storage server, and the NFS-like mount."""

import threading
import time

import pytest

from repro.net.channel import connect_channel
from repro.net.emulation import NetworkProfile
from repro.serialize.msgpack import packb, unpackb
from repro.storage.backend import LocalFSBackend
from repro.storage.nfs import NFSError, NFSMount
from repro.storage.server import StorageServer


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "a.bin").write_bytes(bytes(range(256)) * 4)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.bin").write_bytes(b"nested")
    return tmp_path


# -- LocalFSBackend: the one local read path -----------------------------------


def test_local_read_at(tree):
    fs = LocalFSBackend(tree)
    assert fs.read_bytes("a.bin", 0, 4) == bytes([0, 1, 2, 3])
    assert fs.read_bytes("a.bin", 256, 2) == bytes([0, 1])


def test_local_size_and_exists(tree):
    fs = LocalFSBackend(tree)
    assert fs.stat("a.bin") == 1024
    with pytest.raises(FileNotFoundError):
        fs.stat("missing.bin")


def test_local_listdir(tree):
    fs = LocalFSBackend(tree)
    assert fs.listdir() == ["a.bin", "sub"]
    assert fs.listdir("sub") == ["b.bin"]


def test_local_stats_accounting(tree):
    fs = LocalFSBackend(tree)
    fs.read_bytes("a.bin", 0, 100)
    fs.read_bytes("a.bin", 100, 100)
    fs.stat("a.bin")
    snap = fs.stats.snapshot()
    assert snap["reads"] == 2
    assert snap["bytes_read"] == 200
    assert snap["stats"] == 1


def test_local_escape_rejected(tree):
    fs = LocalFSBackend(tree)
    with pytest.raises(PermissionError):
        fs.read_bytes("../etc/passwd", 0, 10)


@pytest.mark.parametrize(
    "call",
    [
        lambda fs, p: fs.read_bytes(p, 0, 10),
        lambda fs, p: fs.stat(p),
        lambda fs, p: fs.listdir(p),
        lambda fs, p: fs.open_shard(p),
    ],
    ids=["read_bytes", "stat", "listdir", "open_shard"],
)
@pytest.mark.parametrize("escape", ["../outside.bin", "sub/../../outside.bin", "link.bin"])
def test_local_every_entry_point_confined_to_root(tmp_path, call, escape):
    """Paths reach the backend from the network (the storage server), so no
    entry point may leave the root — neither by ``..`` nor by a symlink."""
    root = tmp_path / "root"
    (root / "sub").mkdir(parents=True)
    (tmp_path / "outside.bin").write_bytes(b"secret")
    (root / "link.bin").symlink_to(tmp_path / "outside.bin")
    fs = LocalFSBackend(root)
    with pytest.raises(PermissionError, match="escapes storage root"):
        call(fs, escape)
    assert fs.stats.snapshot()["reads"] == 0


def test_local_invalid_read_params(tree):
    fs = LocalFSBackend(tree)
    with pytest.raises(ValueError):
        fs.read_bytes("a.bin", -1, 10)
    with pytest.raises(ValueError):
        fs.read_bytes("a.bin", 0, -1)


def test_local_root_must_be_dir(tree):
    with pytest.raises(NotADirectoryError):
        LocalFSBackend(tree / "a.bin")


# -- StorageServer + NFSMount -----------------------------------------------------


@pytest.fixture
def server(tree):
    srv = StorageServer(str(tree))
    yield srv
    srv.close()


def test_nfs_roundtrip(server, tree):
    mount = NFSMount("127.0.0.1", server.port)
    assert mount.ping()
    assert mount.stat("a.bin") == 1024
    assert mount.read_bytes("a.bin", 0, 8) == bytes(range(8))
    assert mount.read_bytes("sub/b.bin", 0, mount.stat("sub/b.bin")) == b"nested"
    assert mount.listdir() == ["a.bin", "sub"]
    mount.close()


def test_nfs_error_propagates(server):
    mount = NFSMount("127.0.0.1", server.port)
    with pytest.raises(NFSError):
        mount.stat("no-such-file.bin")
    mount.close()


def test_nfs_stats(server):
    mount = NFSMount("127.0.0.1", server.port)
    mount.read_bytes("a.bin", 0, 10)
    mount.stat("a.bin")
    snap = mount.stats.snapshot()
    assert snap["reads"] == 1 and snap["stats"] == 1
    mount.close()


def test_nfs_concurrent_reads(server):
    mount = NFSMount("127.0.0.1", server.port, pool_size=4)
    results = []
    lock = threading.Lock()

    def worker(off):
        data = mount.read_bytes("a.bin", off, 16)
        with lock:
            results.append((off, data))

    threads = [threading.Thread(target=worker, args=(i * 16,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    for off, data in results:
        assert data == bytes((off + j) % 256 for j in range(16))
    mount.close()


def test_nfs_rtt_cost_per_operation(tree):
    """Every op pays ~RTT: N sequential reads over a 40 ms RTT mount take
    >= N * RTT — the baseline-loader failure mode the paper measures."""
    profile = NetworkProfile("test", rtt_s=0.04)
    srv = StorageServer(str(tree), profile=profile)
    mount = NFSMount("127.0.0.1", srv.port, profile=profile, pool_size=1)
    mount.ping()  # warm up connection
    start = time.monotonic()
    for i in range(5):
        mount.read_bytes("a.bin", i, 1)
    elapsed = time.monotonic() - start
    assert elapsed >= 5 * 0.04 * 0.9
    mount.close()
    srv.close()


def test_nfs_parallel_reads_overlap_rtt(tree):
    """With a connection pool, K concurrent reads overlap their RTTs."""
    profile = NetworkProfile("test", rtt_s=0.05)
    srv = StorageServer(str(tree), profile=profile)
    mount = NFSMount("127.0.0.1", srv.port, profile=profile, pool_size=8)
    mount.ping()
    start = time.monotonic()
    threads = [
        threading.Thread(target=mount.read_bytes, args=("a.bin", i, 1)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start
    # 8 overlapped RTTs of 50 ms must finish well under 8 * 50 ms.
    assert elapsed < 0.25
    mount.close()
    srv.close()


def test_server_read_outside_root_is_refused(server):
    """A ``read`` op naming a path outside the served root answers
    ``ok: false`` instead of bytes."""
    host, port = server.address
    chan = connect_channel(host, port)
    try:
        chan.send(packb({"op": "read", "path": "../../etc/passwd",
                         "offset": 0, "nbytes": 64}))
        resp = unpackb(chan.recv())
    finally:
        chan.close()
    assert resp["ok"] is False
    assert "PermissionError" in resp["error"]
    assert "data" not in resp


def test_server_request_counter(server):
    mount = NFSMount("127.0.0.1", server.port)
    mount.ping()
    mount.stat("a.bin")
    deadline = time.monotonic() + 2
    while server.requests_served < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.requests_served >= 2
    mount.close()


def test_mount_pool_size_validation(server):
    with pytest.raises(ValueError):
        NFSMount("127.0.0.1", server.port, pool_size=0)


def test_mount_closed_rejects_ops(server):
    mount = NFSMount("127.0.0.1", server.port)
    mount.close()
    with pytest.raises(RuntimeError):
        mount.stat("a.bin")
