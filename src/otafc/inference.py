"""End-to-end forward passes through the designed analog layer.

ota_forward runs a design on the true channels as its link, compiled once
per channel set and noise model from the design's cascade on them into one
read-only stacked operator L = [M | S].
M = F2 Heff F1 carries the signal. The relay and receiver noise reach the
output only through its covariance C = F2 R F2^H, and a circular complex
Gaussian is fixed by its covariance, so the noise is drawn at the receiver:
one out_dim-dimensional draw z per sample, times S, the Hermitian square
root of C over sqrt(2). A forward pass is one product y = L [x; z] (+ bias),
the draw written below x in one stacked input.
A synthetic classification task measures the OTA layer against its digital
reference in two steps: draw_samples draws the labelled samples, their
receiver-noise normals and the digital accuracy once, the samples and the
normals stacked as that input, and ota_accuracy scores any design on them in
one product. imported_forward runs an externally trained image pipeline with
the middle complex FC layer replaced by the OTA link, and digital_forward
the same pipeline all digital. Each pipeline precompiles its front end at
construction (the conv kernel as one matrix, the conv bias folded into the
batch-norm shift), and scoring one image both ways runs that front end
once, through a one-slot memo on the pipeline keyed by the image's shape
and bytes and the conv stride and padding.
"""

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Cascade, ChannelSet, NoiseModel
from .solver import OtaParams, TargetLayer
from .utils import complex_normal, integer, positive_real, read_only


def _link(params: OtaParams, true_ch: ChannelSet, noise: NoiseModel) -> np.ndarray:
    """The read-only stacked link L = [M | S], (out_dim, in_dim + out_dim):
    y = L [x; z] = M x + S z, z ~ CN(0, 2 I) of out_dim entries.

    M = L[:, :in_dim] = F2 Heff F1. S = L[:, in_dim:] is C^(1/2) / sqrt(2),
    where C = F2 R F2^H is the output noise covariance, built as
    sum_l s_l P_l P_l^H + s_c F2 F2^H with P_l = D_l diag(a_l). C^(1/2) is
    the principal (Hermitian PSD) square root U diag(sqrt(lam)) U^H of the
    eigendecomposition C = U diag(lam) U^H, with the negative eigenvalues
    that rounding leaves on a singular C clipped to 0. C is singular
    whenever F2 has more rows than rank (out_dim > N_r, a zero row), where a
    Cholesky factor fails; and U diag(sqrt(lam)) U^H, unlike
    U diag(sqrt(lam)), depends on C alone, not on the phases LAPACK picks
    for the eigenvectors. Built from the design's cascade on true_ch and
    kept on params for the last (true_ch, noise) it was built for, by
    identity.
    """
    memo = getattr(params, "_link", None)
    if memo is not None and memo[0] is true_ch and memo[1] is noise:
        return memo[2]
    cas = Cascade.of(true_ch, params, noise)
    scales = np.sqrt(noise.stage_var)
    blocks = (c * d * a for c, d, a in zip(scales, cas.d + [params.f2], cas.a + [1.0]))
    lam, u = np.linalg.eigh(sum(p @ p.conj().T for p in blocks))
    link = np.concatenate((params.f2 @ cas.b,
                           (u * np.sqrt(np.maximum(lam, 0.0) / 2.0)) @ u.conj().T), axis=1)
    link.flags.writeable = False
    object.__setattr__(params, "_link", (true_ch, noise, link))  # kept out of repr
    return link


def ota_forward(x: np.ndarray, params: OtaParams, true_ch: ChannelSet,
                noise: NoiseModel, rng_seed, bias: np.ndarray = None) -> np.ndarray:
    """Propagate x through precoder, relay cascade, and combiner with noise.

    Accepts a single vector (in_dim,) or a batch (in_dim, S) with independent
    noise per sample. Noise enters each relay group before amplification and
    the receiver front end before combining, so the output noise is
    CN(0, F2 R F2^H); it is drawn at the output with that law, as the link's
    S times one standard_normal draw of 2 out_dim numbers per sample (2 out_dim
    S for a batch), whose consecutive pairs are the real and imaginary parts of
    each entry. out_dim is F2's row count, N_r in every design the harness
    builds. The draw lands below x in one stacked input [x; z], and the output
    is one product with the stacked link L = [M | S]. The bias, when given,
    is added digitally after combining. With an all-zero draw the output is
    F2 Heff F1 x + bias. A single vector gives the numbers and generator
    state of a one-column batch. rng_seed is anything np.random.default_rng
    takes; a Generator is drawn from as it is. ValueError, before any
    draw, unless x is (in_dim,) or (in_dim, S) with in_dim F1's column count,
    there is one (K_l,) gain vector per group, and a bias, when given, is
    (out_dim,). The link is reused while params, true_ch and noise are the
    same objects, whose arrays are read-only.
    """
    link = _link(params, true_ch, noise)
    out_dim, n = len(link), params.f1.shape[1]
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"x must have shape ({n},) or ({n}, S), got {x.shape}")
    if bias is not None:
        bias = np.asarray(bias, dtype=complex)
        if bias.shape != (out_dim,):
            raise ValueError(f"bias must have shape ({out_dim},), got {bias.shape}")
    rng = (rng_seed if isinstance(rng_seed, np.random.Generator)
           else np.random.default_rng(rng_seed))
    xz = np.empty((n + out_dim,) + x.shape[1:], dtype=complex)
    xz[:n] = x
    rng.standard_normal(out=xz[n:].view(float))  # (out_dim, 2 S) or (2 out_dim,)
    return _received(link, xz, bias)


def _received(link: np.ndarray, xz: np.ndarray, bias: np.ndarray = None) -> np.ndarray:
    """y = L [x; z] + bias through the stacked link L = [M | S]: xz is the
    input over the receiver-noise entries, one column per sample (or one
    vector); the bias, when given, is added digitally."""
    y = link @ xz
    if bias is not None:
        y += bias if y.ndim == 1 else bias[:, None]
    return y


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class SyntheticTask:
    """Gaussian-cluster classification task probing the emulated layer.

    Samples are class_means[c] plus CN(0, sample_noise_var) perturbations;
    decisions take the argmax of Re(classifier_head @ layer_output). Both
    arrays are read-only copies of the arrays given.
    """

    num_classes: int
    class_means: np.ndarray
    sample_noise_var: float
    classifier_head: np.ndarray

    def __post_init__(self):
        for name in ("class_means", "classifier_head"):
            object.__setattr__(self, name, read_only(getattr(self, name), None, name))
        object.__setattr__(self, "num_classes", integer(self.num_classes, 2, "num_classes"))
        object.__setattr__(self, "sample_noise_var", positive_real(
            self.sample_noise_var, "sample noise variance", zero=True))
        if self.class_means.shape[0] != self.num_classes:
            raise ValueError("one mean vector per class required")
        if self.classifier_head.shape[0] != self.num_classes:
            raise ValueError("one classifier row per class required")


def make_synthetic_task(target: TargetLayer, num_classes: int = 10,
                        sample_noise_var: float = 0.1, rng_seed=None) -> SyntheticTask:
    """Draw class means from CN(0, I) and build the matched classifier head.

    The head is the pseudo-inverse of the digital class templates
    W mu_c + b, so noiseless digital samples score as one-hot vectors.
    num_classes is read by utils.integer (>= 2) before any draw.
    """
    num_classes = integer(num_classes, 2, "num_classes")
    rng = np.random.default_rng(rng_seed)
    means = complex_normal(rng, (num_classes, target.in_dim))
    templates = target.w @ means.T + target.bias[:, None]
    head = np.linalg.pinv(templates)
    return SyntheticTask(num_classes=num_classes, class_means=means,
                         sample_noise_var=sample_noise_var, classifier_head=head)


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class TaskSamples:
    """A labelled sample set of a task, drawn once and scored on any design.

    inputs is ota_forward's stacked input for that batch: the samples x as
    columns, over the standard normals of their receiver noise as
    ota_forward draws them, each consecutive pair one complex entry. So a
    design scores the whole set in one product with its link. digital_acc
    is the target layer's accuracy on the samples, which no design changes.
    draw_samples leaves every array read-only.
    """

    labels: np.ndarray  # (S,)
    inputs: np.ndarray  # (in_dim + out_dim, S) complex
    digital_acc: float


def draw_samples(task: SyntheticTask, target: TargetLayer, num_samples: int,
                 rng_seed) -> TaskSamples:
    """num_samples labelled draws of the task: from one generator, the
    labels, then the sample noise, then the receiver-noise normals.
    num_samples is read by utils.integer before any draw."""
    num_samples = integer(num_samples, None, "num_samples")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    labels = rng.integers(0, task.num_classes, size=num_samples)
    xs = task.class_means[labels].T
    if task.sample_noise_var > 0:
        xs = xs + complex_normal(rng, xs.shape, task.sample_noise_var)
    n = len(xs)
    inputs = np.empty((n + target.out_dim, num_samples), dtype=complex)
    inputs[:n] = xs
    rng.standard_normal(out=inputs[n:].view(float))
    y_dig = target.w @ xs + target.bias[:, None]
    pred_dig = np.argmax((task.classifier_head @ y_dig).real, axis=0)
    for arr in (labels, inputs):  # each made here: read-only in place, layout kept
        arr.flags.writeable = False
    return TaskSamples(labels, inputs, float(np.mean(pred_dig == labels)))


def ota_accuracy(task: SyntheticTask, samples: TaskSamples, target: TargetLayer,
                 params: OtaParams, true_ch: ChannelSet, noise: NoiseModel) -> float:
    """Accuracy of the design on the samples: ota_forward's output with
    target's bias, on the samples' own receiver-noise normals."""
    y = _received(_link(params, true_ch, noise), samples.inputs, target.bias)
    pred = np.argmax((task.classifier_head @ y).real, axis=0)
    return float(np.mean(pred == samples.labels))


# ---------------------------------------------------------------------------
# Imported image pipeline (conv front end, complex FC middle, real head)
# ---------------------------------------------------------------------------

_F32, _C64 = 0, 1
_TENSOR_SPECS = (
    ("conv_kernel", _F32),
    ("conv_bias", _F32),
    ("bn_scale", _C64),
    ("bn_shift", _C64),
    ("fc_mid_weight", _C64),
    ("fc_mid_bias", _C64),
    ("fc_out_weight", _F32),
    ("fc_out_bias", _F32),
)
_MAGIC = b"OTAW"
_VERSION = 1

CONV_STRIDE = 4
CONV_PADDING = 1


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class ImportedPipeline:
    """Externally trained weights for the image-classification pipeline.

    Stage order: conv (2 output channels) -> real-to-complex pairing ->
    complex batch norm (affine, inference mode) -> power normalization ->
    complex FC (the OTA-replaceable layer) -> complex ReLU ->
    complex-to-real -> real FC head. Each tensor is a read-only float64 or
    complex128 copy of the one given; the weight file holds float32/complex64.
    fc_out_weight's columns read [Re; Im] of the FC output: Re_0 .. Re_{M-1},
    then Im_0 .. Im_{M-1}. head is the same matrix with its columns
    interleaved (Re_0, Im_0, Re_1, ...), the order of a complex vector's
    float view. Two more operators precompile the front end: conv_matrix,
    the conv kernel as a C-contiguous (in_channels * kh * kw, 2) matrix whose
    rows follow _window_index's columns, and feature_shift, the conv bias
    folded into the batch-norm shift, bn_scale * (b_0 + 1j b_1) + bn_shift.
    Each of the three is derived by every construction, read-only, and
    neither a dataclass field nor part of the weight file.
    """

    conv_kernel: np.ndarray   # (2, in_channels, kh, kw) real
    conv_bias: np.ndarray     # (2,) real
    bn_scale: np.ndarray      # (F,) complex
    bn_shift: np.ndarray      # (F,) complex
    fc_mid_weight: np.ndarray  # (M, F) complex
    fc_mid_bias: np.ndarray    # (M,) complex
    fc_out_weight: np.ndarray  # (C, 2M) real
    fc_out_bias: np.ndarray    # (C,) real

    def __post_init__(self):
        for name, code in _TENSOR_SPECS:
            wide = read_only(getattr(self, name), complex if code == _C64 else float, name)
            object.__setattr__(self, name, wide)
        if self.conv_kernel.ndim != 4 or self.conv_kernel.shape[0] != 2:
            raise ValueError("conv kernel must be (2, in_ch, kh, kw)")
        if self.conv_bias.shape != (2,):
            raise ValueError("conv bias must have 2 entries")
        f = self.fc_mid_weight.shape[1]
        if self.bn_scale.shape != (f,) or self.bn_shift.shape != (f,):
            raise ValueError("batch-norm parameter length must match FC input")
        m = self.fc_mid_weight.shape[0]
        if self.fc_mid_bias.shape != (m,):
            raise ValueError("middle FC bias length must match its output")
        if self.fc_out_weight.ndim != 2 or self.fc_out_weight.shape[1] != 2 * m:
            raise ValueError("output FC must consume 2x the complex feature count")
        classes = self.fc_out_weight.shape[0]
        if self.fc_out_bias.shape != (classes,):
            raise ValueError("output FC bias length mismatch")
        head = self.fc_out_weight.reshape(classes, 2, m).transpose(0, 2, 1)
        derived = {
            "head": head.reshape(classes, 2 * m),
            "conv_matrix": np.ascontiguousarray(self.conv_kernel.reshape(2, -1).T),
            "feature_shift": self.bn_scale * complex(*self.conv_bias) + self.bn_shift,
        }
        for name, arr in derived.items():  # kept out of repr, fields and the file
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def target_layer(self) -> TargetLayer:
        """The OTA-replaceable complex FC layer."""
        return TargetLayer(w=self.fc_mid_weight, bias=self.fc_mid_bias)


def save_pipeline(pipeline: ImportedPipeline, path):
    """Write the flat binary weight file (magic, version, tagged tensors)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(_TENSOR_SPECS)))
        for name, code in _TENSOR_SPECS:
            arr = getattr(pipeline, name).astype("<c8" if code == _C64 else "<f4")
            raw = name.encode()
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_pipeline(path) -> ImportedPipeline:
    """Read a weight file written by save_pipeline; ValueError naming path
    on a short read, a tensor type code other than its _TENSOR_SPECS one, a
    tensor named twice or bytes after the last tensor. Tensors of other
    names are read and left out."""
    codes = dict(_TENSOR_SPECS)
    with open(path, "rb") as fh:
        def read(n):
            data = fh.read(n)
            if len(data) != n:
                raise ValueError(f"{path}: truncated weight file")
            return data
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a pipeline weight file")
        version, count = struct.unpack("<II", read(8))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            name = read(name_len).decode(errors="replace")
            if name in tensors:
                raise ValueError(f"{path}: tensor {name!r} appears twice")
            code, ndim = struct.unpack("<BB", read(2))
            if code not in (_F32, _C64) or codes.get(name, code) != code:
                raise ValueError(f"{path}: tensor {name!r} has type code {code}")
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            dtype = np.dtype("<c8" if code == _C64 else "<f4")
            payload = read(int(np.prod(shape)) * dtype.itemsize)
            tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(shape)
        extra = len(fh.read())
        if extra:
            raise ValueError(f"{path}: {extra} bytes after the last tensor")
    missing = codes.keys() - tensors.keys()
    if missing:
        raise ValueError(f"{path}: missing tensors {sorted(missing)}")
    try:
        return ImportedPipeline(**{k: v for k, v in tensors.items() if k in codes})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@lru_cache(maxsize=32)
def _window_index(in_ch: int, height: int, width: int, kh: int, kw: int,
                  stride: int, padding: int) -> np.ndarray:
    """Flat pixel index of every (output pixel, channel, kernel tap).

    The result has shape (out_h * out_w, in_ch * kh * kw): one row per output
    pixel, in row-major order, and channel c and tap (i, j) in column
    (c * kh + i) * kw + j, the column order of the kernel's rows. Entries
    index the image flattened channel-major; a tap that falls in the zero
    padding points at in_ch * height * width, the zero appended after the
    last pixel.
    """
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(f"{kh}x{kw} kernel does not fit a {height}x{width} "
                         f"image padded by {padding}")
    r = stride * np.arange(out_h)[:, None] + np.arange(kh) - padding  # (out_h, kh)
    c = stride * np.arange(out_w)[:, None] + np.arange(kw) - padding  # (out_w, kw)
    r, c = r[:, None, None, :, None], c[None, :, None, None, :]
    inside = (r >= 0) & (r < height) & (c >= 0) & (c < width)
    chan = height * width * np.arange(in_ch)[:, None, None]
    idx = np.where(inside, chan + r * width + c, in_ch * height * width)
    idx = idx.reshape(out_h * out_w, in_ch * kh * kw)
    idx.flags.writeable = False
    return idx


def _patches(image: np.ndarray, kernel_shape: tuple, stride: int,
             padding: int) -> np.ndarray:
    """The conv's input windows after zero padding, (out_h * out_w,
    in_ch * kh * kw): one row per output pixel in row-major order, laid out
    as _window_index's columns, for a kernel of shape (in_ch, kh, kw) per
    output channel. A 2-D image is one channel."""
    image = image[None] if image.ndim == 2 else image
    in_ch, kh, kw = kernel_shape
    if image.shape[0] != in_ch:
        raise ValueError(f"expected {in_ch} input channels, got {image.shape[0]}")
    idx = _window_index(in_ch, image.shape[1], image.shape[2], kh, kw, stride, padding)
    return np.concatenate((image.reshape(-1), np.zeros(1, image.dtype)))[idx]


def _power_normalize(z: np.ndarray) -> None:
    """Scale one feature vector, in place, to unit average per-feature power."""
    mean_power = np.vdot(z, z).real / z.size
    if mean_power != 0:
        z /= math.sqrt(mean_power)


def _pre_layers(pipeline: ImportedPipeline, image: np.ndarray) -> np.ndarray:
    """Conv + R2C + batch norm + power normalization -> read-only complex features.

    The conv is the gather of _patches and one product with the pipeline's
    conv_matrix; its bias rides in feature_shift, which the batch norm adds
    after its scale. image is float64. The features of the last image are
    kept on the pipeline, keyed by the image's shape and bytes and the
    CONV_STRIDE and CONV_PADDING in force, so imported_forward and
    digital_forward of one image share one front-end pass: a hit hands back
    that very array. One slot only; an image edited in place between the
    calls no longer matches its key.
    """
    key = (image.shape, image.tobytes(), CONV_STRIDE, CONV_PADDING)
    memo = getattr(pipeline, "_features", None)
    if memo is not None and memo[0] == key:
        return memo[1]
    patches = _patches(image, pipeline.conv_kernel.shape[1:], CONV_STRIDE, CONV_PADDING)
    features = pipeline.fc_mid_weight.shape[1]
    if len(patches) != features:
        raise ValueError(f"conv produced {len(patches)} complex features, "
                         f"pipeline expects {features}")
    z = (patches @ pipeline.conv_matrix).view(complex).reshape(-1)  # Re, Im per pixel
    np.multiply(pipeline.bn_scale, z, out=z)  # scale * z, not z * scale, which
    z += pipeline.feature_shift               # can round apart from it
    _power_normalize(z)
    z.flags.writeable = False
    object.__setattr__(pipeline, "_features", (key, z))  # kept out of repr
    return z


def _post_layers(pipeline: ImportedPipeline, y: np.ndarray) -> np.ndarray:
    """Complex ReLU and the real FC head; overwrites y, (M,) complex.

    The ReLU works on the float view of y, whose real and imaginary parts
    interleave, and the head reads that view: pipeline.head is fc_out_weight
    with its columns in the same order.
    """
    parts = y.view(float)
    np.maximum(parts, 0.0, out=parts)
    scores = pipeline.head @ parts
    scores += pipeline.fc_out_bias
    return scores


def imported_forward(pipeline: ImportedPipeline, image: np.ndarray,
                     params: OtaParams, true_ch: ChannelSet, noise: NoiseModel,
                     rng_seed) -> np.ndarray:
    """Class scores with the middle complex FC layer realized over the air."""
    z = _pre_layers(pipeline, np.asarray(image, dtype=float))
    mid = ota_forward(z, params, true_ch, noise, rng_seed,
                      bias=pipeline.fc_mid_bias)
    return _post_layers(pipeline, mid)


def digital_forward(pipeline: ImportedPipeline, image: np.ndarray) -> np.ndarray:
    """Fully digital reference: the same pipeline with the FC layer in math."""
    z = _pre_layers(pipeline, np.asarray(image, dtype=float))
    mid = pipeline.fc_mid_weight @ z
    mid += pipeline.fc_mid_bias
    return _post_layers(pipeline, mid)
