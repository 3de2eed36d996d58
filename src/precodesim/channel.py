"""Channel data model, per-user SVD decomposition and scenario generation.

A system carries ``num_users`` receivers.  User ``k`` owns an
``rx[k] x num_tx`` channel block ``H_k``; stacking the blocks gives the
aggregate channel.  Each user transports ``layers[k]`` spatial layers,
carved out of ``H_k`` by a reduced SVD.  Layers are ordered user-major,
singular values descending inside each user.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .exceptions import (
    ConfigError, DimensionError, NumericalError, RankDeficiencyError, SelectionError,
    check_integer, check_positive, check_real)
from .numerics import RANK_TOLERANCE, align_phase, as_complex_matrix, reduced_svd

__all__ = ["SystemDims", "ChannelSet", "ChannelDecomposition", "ScenarioConfig", "decompose",
           "generate_scenario", "calibrate_noise"]

# Path power profile of the synthetic generator: the leading
# DOMINANT_PATHS paths decay slowly (PATH_POWER_DECAY per path) and the
# remainder drops off steeply (TAIL_POWER_DECAY per path).  Slow decay
# up front keeps the singular values a user actually transmits on close
# together; the steep tail keeps almost all channel energy inside the
# served subspace so residual-path interference stays negligible even
# when thermal noise is low.
PATH_POWER_DECAY = 0.1
TAIL_POWER_DECAY = 6.0
DOMINANT_PATHS = 2

# Transmit-side scattering geometry.  Every realization sees the same
# fixed landscape of scatterer clusters, placed at evenly spaced
# beamspace bins of the array; only the users move between seeds.  A
# user's path direction mixes the cluster's central beam (weight
# SHARED_PATH_WEIGHT) with a random combination of the beams within
# SCATTER_SPREAD_BINS bins of it, the local angular spread each user
# sees on its own line of sight.  The shared part couples users'
# subspaces the way co-located clusters do, which is the regime where
# regularization choices actually separate; fully independent
# directions in dimension num_tx would be nearly orthogonal and make
# the correlation cap vacuous.
SHARED_PATH_WEIGHT = 0.55
SCATTER_SPREAD_BINS = 2

# Largest per-user path loss magnitude, in dB.  The power gain
# 10 ** (dB / 10) of a user's channel stays a normal double up to about
# 3080 dB; past it the squared channel entries of the MMSE system over-
# or underflow (at 7000 dB the amplitude gain itself overflows, and at
# -7000 dB it underflows to zero channel blocks).
MAX_PATH_LOSS_DB = 3000.0

# Lowest target average single-user SINR, in dB.  The squared layer SINRs
# leave the normal float range near -1540 dB: below it the sum SE of every
# closed form drifts from its linear low-SINR trend by 1e-13 to 1e-9
# relative, and from about -1600 dB detected powers underflow to zero
# (seeds 0-39 of both scenario families).
MIN_SUSINR_DB = -1500.0

# Largest number of scenario candidates drawn and screened at once, which
# bounds the generator's memory whatever the candidate pool.  The first chunk
# of a pool is half as long: a default pool needs about 28 candidates.
CANDIDATE_CHUNK = 64


@dataclass(frozen=True)
class SystemDims:
    """Array sizes of one downlink system.

    Attributes
    ----------
    num_tx : int
        Transmit antennas at the base station.
    rx : tuple of int
        Receive antennas per user.
    layers : tuple of int
        Spatial layers per user; ``layers[k] <= min(rx[k], num_tx)``.
    """

    num_tx: int
    rx: tuple
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "rx", tuple(int(r) for r in self.rx))
        object.__setattr__(self, "layers", tuple(int(l) for l in self.layers))
        if self.num_tx < 1:
            raise ConfigError(f"num_tx must be >= 1, got {self.num_tx}")
        if len(self.rx) != len(self.layers) or not self.rx:
            raise ConfigError("rx and layers must be equal-length, nonempty")
        for k, (r, l) in enumerate(zip(self.rx, self.layers)):
            if r < 1:
                raise ConfigError(f"rx[{k}] must be >= 1, got {r}")
            if not 1 <= l <= min(r, self.num_tx):
                raise ConfigError(
                    f"layers[{k}]={l} outside [1, min(rx={r}, num_tx={self.num_tx})]"
                )
        if self.total_layers > self.num_tx:
            raise ConfigError(
                f"total layers {self.total_layers} exceed num_tx {self.num_tx}"
            )

    @property
    def num_users(self) -> int:
        return len(self.rx)

    @property
    def total_rx(self) -> int:
        return sum(self.rx)

    @property
    def total_layers(self) -> int:
        return sum(self.layers)

    def layer_slice(self, k: int) -> slice:
        """Index range of user k's layers in the stacked layer order."""
        start = sum(self.layers[:k])
        return slice(start, start + self.layers[k])


@dataclass(frozen=True)
class ChannelSet:
    """Per-user channel blocks for one realization.  On a set that
    :func:`generate_scenario` built, ``paths`` is ``(a, amp, b)``, each block's
    exact reduced SVD ``a[k] diag(amp[k]) b[k]^H``; any other carries None."""

    dims: SystemDims
    blocks: tuple
    paths: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(as_complex_matrix(b, f"blocks[{k}]") for k, b in enumerate(self.blocks))
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) != self.dims.num_users:
            raise DimensionError(
                f"expected {self.dims.num_users} blocks, got {len(blocks)}"
            )
        for k, b in enumerate(blocks):
            want = (self.dims.rx[k], self.dims.num_tx)
            if b.shape != want:
                raise DimensionError(f"blocks[{k}] shape {b.shape} != {want}")

    @cached_property
    def groups(self) -> tuple:
        """``(users, h, own)`` per distinct ``(rx_k, layers_k)``, in order of
        first appearance: ``h[i]`` is the block of user ``users[i]`` and
        ``own[i]`` the indices of its layers."""
        dims, by_shape = self.dims, {}
        for k in range(dims.num_users):
            by_shape.setdefault((dims.rx[k], dims.layers[k]), []).append(k)
        layer = np.arange(dims.total_layers)
        return tuple(
            (tuple(u), np.stack([self.blocks[k] for k in u]),
             np.array([layer[dims.layer_slice(k)] for k in u]))
            for u in by_shape.values()
        )


@dataclass(frozen=True)
class ChannelDecomposition:
    """Stacked reduced SVDs of the per-user channels.

    ``v`` has one orthonormal row per layer (user-major order), ``s``
    the matching singular values, and ``u_blocks[k]`` the left factors
    of user k with orthonormal rows, so that
    ``H_k = u_blocks[k]^H @ diag(s_k) @ v_k``.
    """

    dims: SystemDims
    u_blocks: tuple
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.v.shape != (self.dims.total_layers, self.dims.num_tx):
            raise DimensionError(
                f"v shape {self.v.shape} != "
                f"({self.dims.total_layers}, {self.dims.num_tx})"
            )
        if self.s.shape != (self.dims.total_layers,):
            raise DimensionError(f"s shape {self.s.shape} bad")
        if len(self.u_blocks) != self.dims.num_users:
            raise DimensionError("u_blocks count mismatch")
        for k, u in enumerate(self.u_blocks):
            want = (self.dims.layers[k], self.dims.rx[k])
            if u.shape != want:
                raise DimensionError(f"u_blocks[{k}] shape {u.shape} != {want}")
        if not np.all(np.isfinite(self.s)):
            raise NumericalError("stacked singular values must be finite")
        if np.any(self.s <= 0):
            raise RankDeficiencyError("all stacked singular values must be positive")

    @classmethod
    def from_blocks(cls, u_blocks, s_blocks, v_blocks) -> "ChannelDecomposition":
        """Assemble a decomposition from per-user (u, s, v) triplets."""
        u_blocks = tuple(as_complex_matrix(u, "u") for u in u_blocks)
        v_list = [as_complex_matrix(v, "v") for v in v_blocks]
        s_list = [np.asarray(s, dtype=float) for s in s_blocks]
        if not (len(u_blocks) == len(s_list) == len(v_list)):
            raise DimensionError("block lists must have equal length")
        dims = SystemDims(
            num_tx=v_list[0].shape[1],
            rx=tuple(u.shape[1] for u in u_blocks),
            layers=tuple(len(s) for s in s_list),
        )
        return cls(
            dims=dims,
            u_blocks=u_blocks,
            s=np.concatenate(s_list),
            v=np.vstack(v_list),
        )

    def s_block(self, k: int) -> np.ndarray:
        return self.s[self.dims.layer_slice(k)]


def decompose(channels: ChannelSet) -> ChannelDecomposition:
    """Reduced per-user SVD of every channel block.

    A generated set's SVD is read off its path factors (``channels.paths``)
    with the phase convention of :func:`numerics.reduced_svd`; any other
    set runs one SVD per block.  Raises :class:`RankDeficiencyError` if a
    block cannot support its configured number of layers.
    """
    dims = channels.dims
    if channels.paths is None:
        svds = [reduced_svd(h, keep) for h, keep in zip(channels.blocks, dims.layers)]
        u_blocks, s_blocks, v_blocks = zip(*((r.u, r.s, r.v) for r in svds))
    else:
        a, amp, b = channels.paths
        keep = dims.layers[0]
        u_blocks, v_blocks = align_phase(a[..., :keep], b[..., :keep].mT.conj())
        s_blocks = amp[:, :keep]
    for k, s in enumerate(s_blocks):
        if s[-1] <= RANK_TOLERANCE * s[0] or s[0] == 0:
            raise RankDeficiencyError(f"user {k}: channel rank below {dims.layers[k]} "
                                      "requested layers")
    return ChannelDecomposition(dims=dims, u_blocks=tuple(u_blocks),
                                s=np.concatenate(s_blocks), v=np.concatenate(v_blocks))


@dataclass(frozen=True)
class ScenarioConfig:
    """Synthetic multi-path scenario parameters.

    The generator draws a pool of candidate user channels, keeps a
    subset whose dominant right singular vectors are mutually weakly
    correlated, and optionally spreads per-user path loss.  All users
    share ``rx_per_user`` antennas and ``layers_per_user`` layers.
    """

    num_tx: int = 64
    num_users: int = 4
    rx_per_user: int = 16
    layers_per_user: int = 2
    num_paths: int = 6
    candidate_pool: int = 64
    corr_threshold: float = 0.3
    path_loss: str = "equal"
    path_loss_range_db: tuple = (-10.0, 10.0)
    seed: int = 0
    max_retries: int = 100

    def __post_init__(self):
        for name in ("num_tx", "num_users", "rx_per_user", "layers_per_user", "num_paths",
                     "candidate_pool", "max_retries", "seed"):
            check_integer(name, getattr(self, name))
        if self.num_users < 1:
            raise ConfigError("num_users must be >= 1")
        if self.candidate_pool < self.num_users:
            raise ConfigError("candidate_pool must cover num_users")
        if self.num_paths < self.layers_per_user:
            raise ConfigError(
                f"num_paths={self.num_paths} cannot support "
                f"{self.layers_per_user} layers per user"
            )
        if self.num_paths > min(self.rx_per_user, self.num_tx):
            raise ConfigError(
                f"num_paths={self.num_paths} exceeds the antenna count "
                f"available for orthonormal path frames "
                f"(min(rx_per_user, num_tx)={min(self.rx_per_user, self.num_tx)})"
            )
        check_real("corr_threshold", self.corr_threshold)
        if not 0 < self.corr_threshold <= 1:
            raise ConfigError("corr_threshold must be in (0, 1]")
        if self.path_loss not in ("equal", "varied"):
            raise ConfigError(f"unknown path_loss mode {self.path_loss!r}")
        pair = self.path_loss_range_db
        if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2):
            raise ConfigError(f"path_loss_range_db must be a pair (lo, hi), got {pair!r}")
        for end in pair:
            check_real("path_loss_range_db", end)
        lo, hi = map(float, pair)
        # hi - lo is not finite if either end is not, or if the spread
        # overflows, which numpy's uniform draw would refuse; past
        # MAX_PATH_LOSS_DB the squared gain leaves the normal float range
        if not (lo <= hi and np.isfinite(hi - lo) and max(-lo, hi) <= MAX_PATH_LOSS_DB):
            raise ConfigError(
                "path_loss_range_db must be finite (lo, hi) with lo <= hi, "
                f"each within +-{MAX_PATH_LOSS_DB:g} dB, got {self.path_loss_range_db}"
            )
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        _ = self.dims  # validates layer/antenna consistency

    @property
    def dims(self) -> SystemDims:
        return SystemDims(
            num_tx=self.num_tx,
            rx=(self.rx_per_user,) * self.num_users,
            layers=(self.layers_per_user,) * self.num_users,
        )


def _path_powers(num_paths: int) -> np.ndarray:
    """Two-slope path power profile, normalized to unit total."""
    lead = min(DOMINANT_PATHS, num_paths)
    powers = np.empty(num_paths)
    powers[:lead] = np.exp(-PATH_POWER_DECAY * np.arange(lead))
    if num_paths > lead:
        powers[lead:] = powers[lead - 1] * np.exp(
            -TAIL_POWER_DECAY * np.arange(1, num_paths - lead + 1)
        )
    return powers / powers.sum()


@lru_cache(maxsize=32)
def _scatter_environment(num_tx: int, num_paths: int):
    """Fixed scatterer landscape for a given array and path count.

    Clusters sit at evenly spaced beamspace bins of a uniform linear
    array.  Returns ``(centers, surroundings)``: ``centers`` holds the
    central steering vector of each cluster as columns, and
    ``surroundings[i]`` the steering vectors within
    ``SCATTER_SPREAD_BINS`` bins of cluster i as columns.  Deterministic,
    no randomness; the landscape is part of the scenario definition, so
    it is built once per geometry and its arrays are read-only.
    """
    t = np.arange(num_tx)[:, None]
    bins = (np.arange(num_paths) * num_tx) // num_paths
    near = (bins[:, None] + np.arange(-SCATTER_SPREAD_BINS, SCATTER_SPREAD_BINS + 1)) % num_tx
    surroundings = np.exp(-2j * np.pi * t * near[:, None] / num_tx) / np.sqrt(num_tx)
    centers = surroundings[:, :, SCATTER_SPREAD_BINS].T.copy()
    centers.flags.writeable = surroundings.flags.writeable = False
    return centers, surroundings


def _complex(z) -> np.ndarray:
    """Unit-variance complex normals from real draws laid out the way
    :func:`numerics.complex_normal` consumes its stream: real parts, then
    imaginary parts, along the last axis."""
    half = z.shape[-1] // 2
    return np.sqrt(0.5) * (z[..., :half] + 1j * z[..., half:])


def _unit(v) -> np.ndarray:
    """Rows of ``v`` over their norms, each with the bits of
    ``np.linalg.norm`` of that row alone."""
    return v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]


def _mixed_directions(z_paths, environment) -> np.ndarray:
    """Transmit directions before orthonormalization of the first paths,
    from their draws ``z_paths[..., i, :]``: each cluster's central beam
    mixed with a random unit vector from the beams around it.  The
    stacked matrix-vector products give the bits of one call per path."""
    centers, surroundings = environment
    paths = z_paths.shape[-2]
    v = (surroundings[:paths] @ _complex(z_paths)[..., None])[..., 0]
    return (np.sqrt(1.0 - SHARED_PATH_WEIGHT) * _unit(v)
            + np.sqrt(SHARED_PATH_WEIGHT) * centers.T[:paths])


def _blocks(z, config: ScenarioConfig, environment):
    """The multi-path channel blocks ``a diag(sqrt(p)) b^H``, unit
    Frobenius norm, of the candidates drawn as the rows of ``z``, and
    their stacked factors: path frames ``a`` and ``b``, amplitudes ``amp``.

    ``a`` and ``b`` are the orthonormal receive and transmit path
    frames, so a block's singular values equal the path amplitude
    profile exactly.  ``b`` orthonormalizes the mixed directions, whose
    shared central part couples users together while the local part
    makes each user's view of a cluster its own.  Unit Frobenius norm
    keeps squared singular values at O(1), so the scalar ridge built
    from the calibrated noise level lands between the matching and
    inverting regimes across the usual SINR grid instead of swamping
    the unit-scale layer-row Gram.  The stacked QRs and products give
    each block the bits of its own calls.
    """
    rx_draws = 2 * config.rx_per_user * config.num_paths
    a, _ = np.linalg.qr(
        _complex(z[:, :rx_draws]).reshape(len(z), config.rx_per_user, config.num_paths))
    mixed = _mixed_directions(z[:, rx_draws:].reshape(len(z), config.num_paths, -1), environment)
    b, _ = np.linalg.qr(mixed.mT)
    amp = np.broadcast_to(np.sqrt(_path_powers(config.num_paths)), (len(z), config.num_paths))
    return (a * amp[:, None]) @ b.conj().mT, a, amp, b


def generate_scenario(config: ScenarioConfig) -> ChannelSet:
    """Draw one channel realization satisfying the correlation cap.

    The scatterer landscape is fixed by the array geometry; each seed
    only redraws user placements within it, so seed-to-seed variation
    reflects user geometry rather than a new world per draw.  Candidates
    are scanned greedily in draw order; a candidate joins the selection
    when the squared correlation of its dominant direction with every
    already-selected user stays at or below ``corr_threshold``.  If a
    pool yields fewer than ``num_users`` compatible candidates, the next
    seed is tried, up to ``max_retries`` pools, after which
    :class:`SelectionError` is raised.  Output is deterministic in
    ``config.seed``.

    A pool is drawn in chunks of up to :data:`CANDIDATE_CHUNK` candidates
    (half that for the first), one ``standard_normal`` call each (the
    stream of one call per candidate).  A chunk is screened in masked
    greedy steps: its first allowed candidate is kept, and one product of
    the chunk with the kept direction strikes out every later candidate
    too correlated with it.  The kept blocks are built as one stack.
    Varied path loss redraws the last chunk up to its last kept candidate
    before drawing the gains.  The set carries its path factors, the blocks'
    exact reduced SVDs (``ChannelSet.paths``), so :func:`decompose` runs no SVD.
    """
    environment = _scatter_environment(config.num_tx, config.num_paths)
    rx_draws = 2 * config.rx_per_user * config.num_paths
    path_draws = 2 * environment[1].shape[2]
    size, cap = rx_draws + path_draws * config.num_paths, config.corr_threshold
    pool, first = config.candidate_pool, CANDIDATE_CHUNK // 2
    for attempt in range(config.max_retries):
        rng = np.random.default_rng(config.seed + attempt)
        kept, directions = [], np.zeros((0, config.num_tx), dtype=complex)
        for start in chain((0,), range(first, pool, CANDIDATE_CHUNK)):
            state = rng.bit_generator.state
            z = rng.standard_normal((min(CANDIDATE_CHUNK if start else first, pool - start), size))
            # Orthonormal path frames and strictly decreasing path powers
            # make b[:, 0], path 0's normalized mixed direction, the
            # block's dominant right singular vector up to phase, and
            # the correlation test ignores phase: no QR or SVD is needed
            # to screen, only to build the blocks that are kept.
            d = _unit(_mixed_directions(z[:, None, rx_draws:rx_draws + path_draws],
                                        environment)[:, 0])
            # One product per kept direction, never the chunk's Gram
            # d @ d^H: that 64x64 complex gemm wakes OpenBLAS's second
            # thread, which doubled the CPU time per seed (1.0 to 2.3 ms
            # on 2 vCPUs) and saved no wall time.
            free = np.all(abs(np.vecdot(directions[:, None], d)) ** 2 <= cap, axis=0)
            while len(kept) < config.num_users and free.any():
                i = free.argmax()
                kept.append(z[i])
                directions = np.vstack([directions, d[i]])
                free[:i + 1] = False
                free &= abs(np.vecdot(d[i], d)) ** 2 <= cap
            if len(kept) == config.num_users:
                break
        else:
            continue
        blocks, a, amp, b = _blocks(np.stack(kept), config, environment)
        if config.path_loss == "varied":
            rng.bit_generator.state = state
            rng.standard_normal((i + 1) * size)
            lo, hi = config.path_loss_range_db
            gains = 10.0 ** (rng.uniform(lo, hi, size=config.num_users) / 20.0)
            blocks, amp = blocks * gains[:, None, None], amp * gains[:, None]
        channels = ChannelSet(dims=config.dims, blocks=tuple(blocks))
        object.__setattr__(channels, "paths", (a, amp, b))
        return channels
    raise SelectionError(
        f"no {config.num_users}-user subset met corr<= {config.corr_threshold}"
        f" in {config.max_retries} pools from seed {config.seed}"
    )


def calibrate_noise(decomp: ChannelDecomposition, power: float, target_susinr_db):
    """Noise variance that places the realization at a target average
    single-user SINR.

    The single-user SINR of user k is
    ``(power / (layers_k * noise_var)) * geomean(s_k^2)`` and the
    average is the geometric mean over users; this solves that relation
    for ``noise_var`` given the target in dB.  A target below
    :data:`MIN_SUSINR_DB`, a NaN, or a result that over- or underflows,
    raises :class:`ConfigError`.  A tuple or list of targets gives the list
    of their noise variances: the level-independent factor is computed
    once, then each level is one scalar ``power / target * factor``, with
    the bits of its own call.
    """
    check_positive("power", power)
    many = isinstance(target_susinr_db, (tuple, list))
    log_terms = [2.0 * np.mean(np.log(decomp.s_block(k))) - np.log(decomp.dims.layers[k])
                 for k in range(decomp.dims.num_users)]
    out = []
    with np.errstate(over="ignore", divide="ignore"):
        factor = np.exp(np.mean(log_terms))
        for level in target_susinr_db if many else [target_susinr_db]:
            if np.isnan(level):
                raise ConfigError(f"target SINR {level} dB is not finite")
            if not level >= MIN_SUSINR_DB:
                raise ConfigError(f"target SINR {level:g} dB is below the lowest supported "
                                  f"level, {MIN_SUSINR_DB:g} dB")
            out.append(power / np.float64(10.0) ** (level / 10.0) * factor)
            check_positive(f"noise variance for target {level} dB", out[-1])
    return out if many else out[0]
