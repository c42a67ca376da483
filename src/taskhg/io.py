"""Dataset ingestion, checkpoint serialization, and report emission.

File formats are line-oriented UTF-8 TSV:
  interactions  user_id<TAB>item_id
  attributes    node_id<TAB>value
  relations     anchor_id<TAB>comma-joined related ids

A JSON manifest enumerates the auxiliary tasks; the recommendation task is
implicit in the interactions file. Node ids may be arbitrary strings: any
non-dense id space is densified deterministically and the mapping is
persisted next to the data.
"""

from __future__ import annotations

import json
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
from .model import EmbeddingTable
from .tasks import (
    AttributeTable,
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
        payload = json.loads(path.read_text(encoding="utf-8"))
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
        return [
            f"# users              {self.num_users}",
            f"# items              {self.num_items}",
            f"# user-item edges    {self.num_interactions}",
            f"# auxiliary tasks    {self.num_auxiliary_tasks}",
            f"# node attributes    {self.num_node_attributes}",
            f"# homogeneous edges  {self.num_homogeneous_edges}",
        ]


def _read_tsv(path: Path, num_fields: int):
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != num_fields:
            raise DataError(
                f"{path}:{lineno}: expected {num_fields} tab-separated fields, got {line!r}"
            )
        rows.append((lineno, fields))
    return rows


class _IdMapper:
    """Deterministic raw-id -> dense-index assignment for one entity side."""

    def __init__(self, raw_ids):
        raw_ids = set(raw_ids)
        as_int = None
        try:
            as_int = {r: int(r) for r in raw_ids}
        except ValueError:
            pass
        # Ids such as "00" or "+1" are distinct strings, so only canonical
        # ones ("0", "1", ...) may stand for their own index.
        canonical = as_int is not None and all(str(v) == r for r, v in as_int.items())
        if canonical and set(as_int.values()) == set(range(len(as_int))):
            self.identity = True
            self.count = len(as_int)
            self.mapping = None
        else:
            self.identity = False
            if as_int is not None:
                ordered = sorted(raw_ids, key=lambda r: (as_int[r], r))
            else:
                ordered = sorted(raw_ids)
            self.mapping = {raw: idx for idx, raw in enumerate(ordered)}
            self.count = len(ordered)

    def index(self, raw: str) -> int:
        if self.identity:
            return int(raw)
        return self.mapping[raw]

    def persist(self, path: Path):
        # Concurrent readers must never see a partial map: write only on a
        # change, through a temp file in the same directory.
        if self.identity:
            return
        ordered = sorted(self.mapping, key=self.mapping.get)
        blob = "".join(f"{raw}\t{self.mapping[raw]}\n" for raw in ordered).encode("utf-8")
        if path.is_file() and path.read_bytes() == blob:
            return
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(blob)
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
    inter_rows = _read_tsv(root / manifest.interactions_path, 2)
    if not inter_rows:
        raise DataError(f"interactions file {manifest.interactions_path} is empty")

    raw_users = [u for _, (u, _) in inter_rows]
    raw_items = [i for _, (_, i) in inter_rows]
    task_rows = {}
    for decl in manifest.tasks:
        if decl.kind == TaskKind.ATTRIBUTE_PREDICTION:
            rows = _read_tsv(root / decl.path, 2)
            if not rows:
                raise DataError(f"attribute file {decl.path} for task {decl.task_id!r} is empty")
            ids = [n for _, (n, _) in rows]
        else:
            rows = _read_tsv(root / decl.path, 2)
            ids = []
            for _, (anchor, related) in rows:
                ids.append(anchor)
                ids.extend(r for r in related.split(",") if r)
        task_rows[decl.task_id] = rows
        if decl.side == NodeSide.USERS:
            raw_users.extend(ids)
        else:
            raw_items.extend(ids)

    users = _IdMapper(raw_users)
    items = _IdMapper(raw_items)
    users.persist(root / "idmap.users.tsv")
    items.persist(root / "idmap.items.tsv")

    edges = {(users.index(u), items.index(i)) for _, (u, i) in inter_rows}
    aux_tasks = []
    total_attributes = 0
    total_relations = 0
    total_skipped = 0
    for decl in manifest.tasks:
        mapper = users if decl.side == NodeSide.USERS else items
        rows = task_rows[decl.task_id]
        if decl.kind == TaskKind.ATTRIBUTE_PREDICTION:
            records = []
            if decl.value_kind == "continuous":
                for lineno, (node, value) in rows:
                    try:
                        records.append((mapper.index(node), float(value)))
                    except ValueError as exc:
                        raise DataError(
                            f"{decl.path}:{lineno}: bad continuous value {value!r}"
                        ) from exc
            else:
                records = [(mapper.index(node), value) for _, (node, value) in rows]
            total_attributes += len(records)
            task = build_attribute_hypergraph(
                decl.task_id,
                decl.side,
                AttributeTable(records, decl.value_kind),
                decl.bins or quantization_bins,
                mapper.count,
            )
            aux_tasks.append(task)
        else:
            relations = []
            for _, (anchor, related) in rows:
                related_set = {mapper.index(r) for r in related.split(",") if r}
                relations.append((mapper.index(anchor), related_set))
            task, skipped = build_relation_hypergraph(
                decl.task_id, decl.side, relations, mapper.count
            )
            total_relations += task.graph.num_hyperedges
            total_skipped += skipped
            aux_tasks.append(task)

    if train_fraction is not None:
        train, test = split_interactions(edges, train_fraction, split_seed)
    else:
        train, test = set(edges), set()
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
        "".join(f"{u}\t{i}\n" for u, i in sorted(edges)), encoding="utf-8"
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
        return EmbeddingTable(self.user_emb.copy(), self.item_emb.copy())


def save_checkpoint(table: EmbeddingTable, config: TrainConfig, path):
    header = _HEADER.pack(
        table.dim,
        table.num_users,
        table.num_items,
        config.seed,
        bytes.fromhex(config.fingerprint()),
    )
    body_u = np.ascontiguousarray(table.user_emb, dtype="<f8").tobytes()
    body_i = np.ascontiguousarray(table.item_emb, dtype="<f8").tobytes()
    Path(path).write_bytes(
        CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + header + body_u + body_i
    )


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
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
    flat = np.frombuffer(blob, dtype="<f8", offset=offset).astype(np.float64)
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
