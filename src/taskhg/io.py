"""Dataset ingestion, checkpoint serialization, and report emission.

File formats are line-oriented UTF-8 TSV (a leading byte-order mark is
dropped, from the manifest too):
  interactions  user_id<TAB>item_id
  attributes    node_id<TAB>value
  relations     anchor_id<TAB>comma-joined related ids

A JSON manifest enumerates the auxiliary tasks; the recommendation task is
implicit in the interactions file. Every file goes through one reader,
which returns its two columns, and every id column is mapped with one call.
Node ids may be arbitrary strings: any non-dense id space is densified
deterministically and the mapping is persisted next to the data.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import InteractionDataset, split_interactions
from .errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    DataError,
)
from .evaluate import EvalReport
from .hypergraph import sorted_unique
from .model import EmbeddingTable
from .tasks import (
    NodeSide,
    TaskKind,
    build_attribute_hypergraph,
    build_relation_hypergraph,
)

MANIFEST_VERSION = 1
CHECKPOINT_MAGIC = b"TASKHGCP"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<IQQq32s")


@dataclass
class TaskDeclaration:
    task_id: str
    kind: TaskKind
    side: NodeSide
    path: str
    value_kind: str = "categorical"
    bins: int | None = None


@dataclass
class TaskManifest:
    version: int
    interactions_path: str
    tasks: list = field(default_factory=list)


def _check_string(path, key, value):
    if not isinstance(value, str):
        raise DataError(f"manifest {path}: '{key}' must be a string, got {value!r}")


def parse_manifest(path) -> TaskManifest:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"manifest {path} must be a JSON object, got {payload!r}")
    if "version" not in payload:
        raise DataError(f"manifest {path} is missing the required 'version' key")
    if payload["version"] != MANIFEST_VERSION:
        raise DataError(
            f"unsupported manifest version {payload['version']} (expected {MANIFEST_VERSION})"
        )
    if "interactions" not in payload:
        raise DataError(f"manifest {path} must name an 'interactions' file")
    _check_string(path, "interactions", payload["interactions"])
    entries = payload.get("tasks", [])
    if not isinstance(entries, list):
        raise DataError(f"manifest {path}: 'tasks' must be a list, got {entries!r}")
    tasks = []
    seen_ids = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataError(f"manifest {path}: each 'tasks' entry must be an object, got {entry!r}")
        try:
            task_id = entry["id"]
            kind = TaskKind(entry["kind"])
            side = NodeSide(entry["side"])
            file_path = entry["path"]
        except (KeyError, ValueError) as exc:
            raise DataError(f"bad task entry in manifest {path}: {entry!r} ({exc})") from exc
        _check_string(path, "id", task_id)
        _check_string(path, "path", file_path)
        if kind == TaskKind.RECOMMENDATION:
            raise DataError("the recommendation task is implicit; do not declare it")
        if task_id in seen_ids or task_id == "rec":
            raise DataError(f"duplicate or reserved task id {task_id!r}")
        seen_ids.add(task_id)
        if kind == TaskKind.RELATION_PREDICTION:
            extra = [key for key in ("value_kind", "bins") if key in entry]
            if extra:
                raise DataError(
                    f"task {task_id!r}: a relation task takes no {' or '.join(extra)}"
                )
        value_kind = entry.get("value_kind", "categorical")
        if value_kind not in ("categorical", "continuous"):
            raise DataError(
                f"task {task_id!r}: value_kind must be 'categorical' or 'continuous', "
                f"got {value_kind!r}"
            )
        bins = entry.get("bins")
        # type(...) is int rejects floats, strings and JSON true/false.
        if bins is not None and (type(bins) is not int or bins < 2):
            raise DataError(f"task {task_id!r}: bins must be an integer >= 2, got {bins!r}")
        tasks.append(
            TaskDeclaration(
                task_id=task_id,
                kind=kind,
                side=side,
                path=file_path,
                value_kind=value_kind,
                bins=bins,
            )
        )
    return TaskManifest(payload["version"], payload["interactions"], tasks)


@dataclass
class DatasetStats:
    """Ingestion summary in the shape of a dataset statistics table."""

    num_users: int
    num_items: int
    num_interactions: int
    num_auxiliary_tasks: int
    num_node_attributes: int
    num_homogeneous_edges: int
    relation_records_skipped: int = 0

    def lines(self):
        """The table's lines; the skipped-record count only when above 0."""
        lines = [
            f"# users              {self.num_users}",
            f"# items              {self.num_items}",
            f"# user-item edges    {self.num_interactions}",
            f"# auxiliary tasks    {self.num_auxiliary_tasks}",
            f"# node attributes    {self.num_node_attributes}",
            f"# homogeneous edges  {self.num_homogeneous_edges}",
        ]
        if self.relation_records_skipped:
            lines.append(f"# skipped relations  {self.relation_records_skipped}")
        return lines


def _read_pairs(root: Path, name: str, continuous: bool = False):
    """The two tab-separated fields of every line of `root / name`, as two lists.

    Lines are those of `str.splitlines` after `read_text` has dropped a
    leading byte-order mark and turned CRLF and CR into LF; blank ones are
    skipped. A check over the joined lines' tabs and LFs finds every line
    well formed, and one `split` takes all the fields; only when it fails
    does a line scan name the first bad line.
    With `continuous`, the second fields are returned as floats; one that is
    not a finite float raises DataError naming `name` and its line.
    """
    path = root / name
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    records = "\n".join(filter(None, lines))
    if not records:
        return [], []
    seps = np.frombuffer(records.encode("utf-8"), dtype=np.uint8)
    seps = seps[(seps == 9) | (seps == 10)]
    # Tab, LF, tab, ..., LF, tab: exactly one tab on every line.
    if not (len(seps) % 2 and (seps[0::2] == 9).all() and (seps[1::2] == 10).all()):
        for lineno, line in enumerate(lines, start=1):
            if line and line.count("\t") != 1:
                raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields, got {line!r}")
    fields = records.replace("\n", "\t").split("\t")
    keys, values = fields[0::2], fields[1::2]
    if continuous:
        linenos = (n for n, line in enumerate(lines, start=1) if line)
        for record, (lineno, raw) in enumerate(zip(linenos, values)):
            try:
                values[record] = float(raw)
            except ValueError:
                values[record] = math.nan
            if not math.isfinite(values[record]):
                raise DataError(f"{name}:{lineno}: bad continuous value {raw!r}")
    return keys, values


def _read_task(root: Path, decl: TaskDeclaration):
    """A task file as columns: an attribute task's nodes and their values, or
    a relation task's anchors, every record's related ids in one flat
    column, and each record's count of related ids."""
    if decl.kind == TaskKind.ATTRIBUTE_PREDICTION:
        nodes, values = _read_pairs(root, decl.path, decl.value_kind == "continuous")
        if not nodes:
            raise DataError(f"attribute file {decl.path} for task {decl.task_id!r} is empty")
        return nodes, values
    anchors, fields = _read_pairs(root, decl.path)
    # The fields joined by tabs, which no field holds: an id starts at every
    # byte that is neither a comma nor a tab and follows one (or the start);
    # the tabs before it number its record.
    text = "\t".join(fields)
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    tab = data == 9
    inside = ~(tab | (data == 44))
    starts = inside.copy()
    starts[1:] &= ~inside[:-1]
    counts = np.bincount(np.cumsum(tab)[starts], minlength=len(fields))
    related = list(filter(None, text.replace("\t", ",").split(",")))
    return anchors, related, counts


class _IdMapper:
    """Deterministic raw-id -> dense-index assignment for one entity side."""

    def __init__(self, *columns):
        raw_ids = set().union(*columns)
        as_int = None
        try:
            as_int = {r: int(r) for r in raw_ids}
        except ValueError:
            pass
        # Ids such as "00" or "+1" are distinct strings, so only canonical
        # ones ("0", "1", ...) may stand for their own index.
        canonical = as_int is not None and all(str(v) == r for r, v in as_int.items())
        self.identity = canonical and set(as_int.values()) == set(range(len(as_int)))
        if self.identity:
            self.mapping = as_int
        else:
            key = None if as_int is None else lambda r: (as_int[r], r)
            self.mapping = {raw: idx for idx, raw in enumerate(sorted(raw_ids, key=key))}
        self.count = len(self.mapping)

    def indices(self, column) -> np.ndarray:
        """The dense index of every raw id in `column`, as an int64 array."""
        return np.fromiter(map(self.mapping.__getitem__, column), dtype=np.int64, count=len(column))

    def persist(self, path: Path):
        if self.identity:
            return
        ordered = sorted(self.mapping, key=self.mapping.get)
        blob = "".join(f"{raw}\t{self.mapping[raw]}\n" for raw in ordered).encode("utf-8")
        if path.is_file() and path.read_bytes() == blob:
            return
        _replace_file(path, blob)


def _replace_file(path, *chunks):
    """Write the bytes-like `chunks`, in order, to `path` through a temp
    file in the same directory.

    A concurrent reader sees the old file or the new one, never a partial
    one, and a failed write leaves the old file as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_dataset(
    root,
    manifest,
    train_fraction: float | None = None,
    split_seed: int = 0,
    quantization_bins: int = 5,
):
    """Parse a dataset directory into an InteractionDataset plus statistics.

    With train_fraction set, interactions are split deterministically under
    split_seed; otherwise everything lands in the train set.
    """
    root = Path(root)
    if not isinstance(manifest, TaskManifest):
        manifest = parse_manifest(root / manifest if not Path(manifest).is_absolute() else manifest)
    user_column, item_column = _read_pairs(root, manifest.interactions_path)
    if not user_column:
        raise DataError(f"interactions file {manifest.interactions_path} is empty")
    tables = [(decl, _read_task(root, decl)) for decl in manifest.tasks]
    # Every column of a task file but the last holds ids.
    users = _IdMapper(
        user_column, *(c for d, cols in tables if d.side == NodeSide.USERS for c in cols[:-1])
    )
    items = _IdMapper(
        item_column, *(c for d, cols in tables if d.side == NodeSide.ITEMS for c in cols[:-1])
    )
    users.persist(root / "idmap.users.tsv")
    items.persist(root / "idmap.items.tsv")

    # In range, the keys u * items.count + i ascend in row-major order.
    keys = sorted_unique(users.indices(user_column) * items.count + items.indices(item_column))
    edges = np.column_stack(np.divmod(keys, items.count))
    aux_tasks = []
    total_attributes = 0
    total_relations = 0
    total_skipped = 0
    for decl, (*ids, values) in tables:
        mapper = users if decl.side == NodeSide.USERS else items
        ids = [mapper.indices(column) for column in ids]
        if decl.kind == TaskKind.ATTRIBUTE_PREDICTION:
            total_attributes += len(values)
            task = build_attribute_hypergraph(
                decl.task_id, decl.side, *ids, values, decl.bins or quantization_bins,
                mapper.count, decl.value_kind,
            )
        else:
            task, skipped = build_relation_hypergraph(
                decl.task_id, decl.side, *ids, values, mapper.count
            )
            total_relations += task.graph.num_hyperedges
            total_skipped += skipped
        aux_tasks.append(task)

    if train_fraction is not None:
        train, test = split_interactions(edges, train_fraction, split_seed)
    else:
        train, test = edges, edges[:0]
    dataset = InteractionDataset(
        num_users=users.count,
        num_items=items.count,
        train_edges=train,
        test_edges=test,
        auxiliary_tasks=aux_tasks,
    )
    stats = DatasetStats(
        num_users=users.count,
        num_items=items.count,
        num_interactions=len(edges),
        num_auxiliary_tasks=len(aux_tasks),
        num_node_attributes=total_attributes,
        num_homogeneous_edges=total_relations,
        relation_records_skipped=total_skipped,
    )
    return dataset, stats


def write_synthetic_dataset(
    out_dir,
    num_users: int,
    num_items: int,
    num_blocks: int,
    noise: float,
    seed: int,
    interactions_per_user: int = 2,
    relation_partners: int = 2,
):
    """Write the planted block-model fixture as a loadable dataset directory."""
    from .data import synthetic_records

    edges, attr_records, relations = synthetic_records(
        num_users, num_items, num_blocks, noise, seed, interactions_per_user, relation_partners
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "interactions.tsv").write_text(
        "".join(f"{u}\t{i}\n" for u, i in edges.tolist()), encoding="utf-8"
    )
    (out / "item_blocks.tsv").write_text(
        "".join(f"{i}\t{label}\n" for i, label in attr_records), encoding="utf-8"
    )
    (out / "item_partners.tsv").write_text(
        "".join(
            f"{anchor}\t{','.join(str(r) for r in sorted(related))}\n"
            for anchor, related in relations
        ),
        encoding="utf-8",
    )
    manifest = {
        "version": MANIFEST_VERSION,
        "interactions": "interactions.tsv",
        "tasks": [
            {
                "id": "item_block",
                "kind": "attribute",
                "side": "items",
                "path": "item_blocks.tsv",
                "value_kind": "categorical",
            },
            {
                "id": "item_partners",
                "kind": "relation",
                "side": "items",
                "path": "item_partners.tsv",
            },
        ],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return out


# ---------------------------------------------------------------------------
# Checkpoints: magic, version byte, fixed header, row-major little-endian f64.


@dataclass
class Checkpoint:
    format_version: int
    dim: int
    num_users: int
    num_items: int
    seed: int
    config_fingerprint: str
    user_emb: np.ndarray
    item_emb: np.ndarray

    def to_table(self) -> EmbeddingTable:
        """The table, sharing the checkpoint's arrays (training copies it)."""
        return EmbeddingTable(self.user_emb, self.item_emb)


def save_checkpoint(table: EmbeddingTable, config: TrainConfig, path):
    header = _HEADER.pack(
        table.dim,
        table.num_users,
        table.num_items,
        config.seed,
        bytes.fromhex(config.fingerprint()),
    )
    # The tables are written from their own memory, without a bytes copy.
    _replace_file(
        path,
        CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + header,
        np.ascontiguousarray(table.user_emb, dtype="<f8"),
        np.ascontiguousarray(table.item_emb, dtype="<f8"),
    )


def load_checkpoint(path) -> Checkpoint:
    # Read into a writable buffer, so the tables are views of it, not copies.
    with open(path, "rb") as f:
        blob = bytearray(os.fstat(f.fileno()).st_size)
        del blob[f.readinto(blob) :]
    if len(blob) < len(CHECKPOINT_MAGIC) + 1 or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic bytes)")
    version = blob[len(CHECKPOINT_MAGIC)]
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        )
    offset = len(CHECKPOINT_MAGIC) + 1
    if len(blob) < offset + _HEADER.size:
        raise CheckpointTruncatedError(f"{path}: header truncated")
    dim, num_users, num_items, seed, digest = _HEADER.unpack_from(blob, offset)
    offset += _HEADER.size
    if dim < 1:
        raise CheckpointFormatError(f"{path}: header dim must be >= 1, got {dim}")
    if seed < 0:
        raise CheckpointFormatError(f"{path}: header seed must be >= 0, got {seed}")
    expected = (num_users + num_items) * dim * 8
    if len(blob) - offset != expected:
        raise CheckpointTruncatedError(
            f"{path}: body holds {len(blob) - offset} bytes, header promises {expected}"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=offset).astype(np.float64, copy=False)
    user = flat[: num_users * dim].reshape(num_users, dim)
    item = flat[num_users * dim :].reshape(num_items, dim)
    for block, emb in (("user", user), ("item", item)):
        finite = np.isfinite(emb).all(axis=1)
        if not finite.all():
            raise CheckpointFormatError(
                f"{path}: {block} row {int(np.argmin(finite))} holds a non-finite value"
            )
    return Checkpoint(
        format_version=version,
        dim=dim,
        num_users=num_users,
        num_items=num_items,
        seed=seed,
        config_fingerprint=digest.hex(),
        user_emb=user,
        item_emb=item,
    )


# ---------------------------------------------------------------------------
# Report emission.


def format_report(report: EvalReport, fmt: str) -> str:
    """Render an EvalReport as an aligned table or as key<TAB>value lines."""
    ks = tuple(report.ks)
    if not ks:
        raise ValueError("report has an empty K list")
    if fmt == "machine":
        lines = [
            f"meta/seed\t{report.seed}",
            f"meta/epochs_pretrain\t{report.epochs_pretrain}",
            f"meta/epochs_finetune\t{report.epochs_finetune}",
        ]
        if report.cold_start_ratio is not None:
            lines.append(f"meta/cold_start_ratio\t{report.cold_start_ratio!r}")
        lines.append("meta/ks\t" + ",".join(str(k) for k in ks))
        for row in report.rows:
            for k in ks:
                lines.append(f"{row.label}/recall@{k}\t{row.recall[k]!r}")
            for k in ks:
                lines.append(f"{row.label}/ndcg@{k}\t{row.ndcg[k]!r}")
            lines.append(f"{row.label}/num_users\t{row.num_users}")
        return "\n".join(lines) + "\n"
    if fmt == "table":
        headers = ["label"] + [f"R@{k}" for k in ks] + [f"N@{k}" for k in ks] + ["users"]
        body = []
        for row in report.rows:
            cells = [row.label]
            cells += [f"{row.recall[k]:.4f}" for k in ks]
            cells += [f"{row.ndcg[k]:.4f}" for k in ks]
            cells.append(str(row.num_users))
            body.append(cells)
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in body)) if body else len(headers[c])
            for c in range(len(headers))
        ]
        def render(cells):
            first = cells[0].ljust(widths[0])
            rest = "  ".join(c.rjust(w) for c, w in zip(cells[1:], widths[1:]))
            return (first + "  " + rest).rstrip()
        lines = [render(headers)] + [render(r) for r in body]
        if report.cold_start_ratio is not None:
            lines.append(f"cold-start ratio: {report.cold_start_ratio}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format: {fmt!r}")


def emit_report(report: EvalReport, fmt: str, path):
    Path(path).write_text(format_report(report, fmt), encoding="utf-8")
