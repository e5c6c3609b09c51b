"""The synth oracle: a copy of `synth_generate` as it was written with Python
loops over genes, perturbations and edges, one `hash_embedding` call per use
of a vector. `data.synth_generate` must make the same rng draws in the same
order and so return byte-identical data."""

import numpy as np
import pytest

from pertgraph import data
from pertgraph.data import (
    STRATA,
    PerturbationDataset,
    SemanticEmbeddings,
    SynthConfig,
    SynthData,
    hash_embedding,
    synth_generate,
)
from pertgraph.graph import GeneVocab, KnowledgeGraph


def synth_generate_loops(config: SynthConfig, seed: int) -> SynthData:
    config.validate()
    rng = np.random.default_rng(seed)
    n, p_count, cells = config.n_genes, config.n_perturbations, config.cells_per_condition
    names = [f"G{i:04d}" for i in range(n)]
    vocab = GeneVocab(names)

    max_count = max(2, round(max(config.deg_fracs) * n))
    n_modules = config.n_modules or max(2, min(p_count, n // (2 * max_count)))
    n_modules = min(n_modules, n // 4)
    member_order = rng.permutation(n)
    modules = np.array_split(member_order, n_modules)
    module_of = np.empty(n, dtype=np.int64)
    for m, members in enumerate(modules):
        module_of[members] = m
    programs = [list(rng.permutation(members)) for members in modules]
    response = np.zeros(n)
    for members in modules:
        signs = rng.choice([-1.0, 1.0], size=len(members))
        mags = config.effect_magnitude * rng.uniform(0.8, 1.2, size=len(members))
        response[members] = signs * mags

    used: set[int] = set()
    pert_gene_idx: list[int] = []
    for i in range(p_count):
        pool = [g for g in modules[i % n_modules] if g not in used]
        if not pool:
            pool = [g for g in range(n) if g not in used]
        g = int(rng.choice(pool))
        used.add(g)
        pert_gene_idx.append(g)

    truth_degs: dict[str, list[str]] = {}
    effects: dict[str, np.ndarray] = {}
    strata: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    baseline = rng.uniform(0.5, 3.0, size=n)
    control = np.maximum(baseline + rng.normal(0.0, config.noise_sigma, size=(cells, n)), 0.0)

    for i, gidx in enumerate(pert_gene_idx):
        pname = names[gidx]
        stratum = STRATA[i % 3]
        frac = config.deg_fracs[i % 3]
        count = max(1, round(frac * n))
        program = [int(g) for g in programs[module_of[gidx]] if g != gidx]
        chosen = program[: count - 1]
        if len(chosen) + 1 < count:
            rest = [g for g in range(n) if g != gidx and g not in chosen]
            fill = rng.choice(rest, size=count - 1 - len(chosen), replace=False)
            chosen.extend(int(x) for x in fill)
        deg_idx = np.array(sorted([gidx] + chosen), dtype=np.int64)
        effect = np.zeros(n)
        effect[deg_idx] = response[deg_idx]
        effect[gidx] = -config.effect_magnitude
        noise = rng.normal(0.0, config.noise_sigma, size=(cells, n))
        blocks[pname] = np.maximum(baseline + effect + noise, 0.0)
        truth_degs[pname] = [names[j] for j in deg_idx]
        effects[pname] = effect
        strata[pname] = stratum

    edges: list[tuple[int, int, float]] = []
    for members in modules:
        mem = list(members)
        for a, b in zip(mem, mem[1:]):
            edges.append((int(a), int(b), float(rng.uniform(0.4, 0.7))))
    for m in range(n_modules):
        a = int(rng.choice(modules[m]))
        b = int(rng.choice(modules[(m + 1) % n_modules]))
        if a != b:
            edges.append((a, b, float(rng.uniform(0.05, 0.3))))
    for gidx in pert_gene_idx:
        for g in truth_degs[names[gidx]]:
            tgt = vocab.index(g)
            if tgt != gidx:
                edges.append((gidx, tgt, float(rng.uniform(0.7, 1.0))))
    graph = KnowledgeGraph.from_edges(vocab, edges)

    dataset = PerturbationDataset(vocab, control, blocks)

    vectors = {}
    for g in range(n):
        mod_part = hash_embedding(f"module-{module_of[g]}", config.embed_dim)
        gene_part = hash_embedding(names[g], config.embed_dim)
        v = 0.8 * mod_part + 0.2 * gene_part
        vectors[names[g]] = v / np.linalg.norm(v)
    for pname, genes in truth_degs.items():
        set_part = np.sum([hash_embedding(g, config.embed_dim) for g in genes], axis=0)
        set_part /= np.linalg.norm(set_part)
        mod_part = hash_embedding(f"module-{module_of[vocab.index(pname)]}", config.embed_dim)
        v = 0.6 * set_part + 0.4 * mod_part
        vectors[pname] = v / np.linalg.norm(v)
    embeddings = SemanticEmbeddings(dim=config.embed_dim, vectors=vectors)

    return SynthData(
        dataset=dataset,
        truth_degs=truth_degs,
        graph=graph,
        embeddings=embeddings,
        effects=effects,
        strata=strata,
    )


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


CASES = {
    "c7-seed0": (SynthConfig(), 0),
    "c7-seed1": (SynthConfig(), 1),
    "c7-seed2": (SynthConfig(), 2),
    # 4-gene modules: every stratum's planted set outgrows its module and is filled from the rest
    "fill-every-stratum": (SynthConfig(n_genes=40, n_perturbations=12, cells_per_condition=5,
                                       deg_fracs=(0.15, 0.2, 0.3), n_modules=10), 3),
    "default-fracs-4-gene-modules": (SynthConfig(n_genes=40, n_perturbations=9, cells_per_condition=5, n_modules=10), 4),
    "zero-noise": (SynthConfig(n_genes=60, n_perturbations=9, noise_sigma=0.0), 5),
    "every-gene-perturbed": (SynthConfig(n_genes=22, n_perturbations=22, cells_per_condition=4, n_modules=5), 6),
    "embed-dim-2": (SynthConfig(n_genes=50, n_perturbations=8, embed_dim=2), 7),
    "uneven-modules": (SynthConfig(n_genes=103, n_perturbations=31, cells_per_condition=6, n_modules=7,
                                   effect_magnitude=0.5), 8),
}


@pytest.mark.parametrize("case", list(CASES))
def test_synth_generate_matches_the_loop_oracle_byte_for_byte(case):
    config, seed = CASES[case]
    new, old = synth_generate(config, seed), synth_generate_loops(config, seed)
    assert new.dataset.vocab == old.dataset.vocab
    assert same_array(new.dataset.control, old.dataset.control)
    assert list(new.dataset.perturbations) == list(old.dataset.perturbations)
    for name, block in old.dataset.perturbations.items():
        assert same_array(new.dataset.block(name), block), name
    for part in ("indptr", "indices", "weights"):
        assert same_array(getattr(new.graph, part), getattr(old.graph, part)), part
    assert new.embeddings.dim == old.embeddings.dim
    assert list(new.embeddings.vectors) == list(old.embeddings.vectors)
    for gene, vector in old.embeddings.vectors.items():
        assert same_array(new.embeddings.vectors[gene], vector), gene
    assert list(new.effects) == list(old.effects)
    for name, effect in old.effects.items():
        assert same_array(new.effects[name], effect), name
    assert new.truth_degs == old.truth_degs and list(new.truth_degs) == list(old.truth_degs)
    assert all(type(g) is str for genes in new.truth_degs.values() for g in genes)
    assert new.strata == old.strata and list(new.strata) == list(old.strata)


def test_fill_case_takes_the_fill_path_in_every_stratum():
    config, seed = CASES["fill-every-stratum"]
    synth = synth_generate(config, seed)
    sizes = {len(genes) for genes in synth.truth_degs.values()}
    assert sizes == {6, 8, 12} and set(synth.strata.values()) == set(STRATA)  # all above the 4-gene modules


@pytest.mark.parametrize("config,n_modules", [(SynthConfig(), 4), (CASES["fill-every-stratum"][0], 10)])
def test_synth_hashes_each_gene_and_module_name_once(monkeypatch, config, n_modules):
    calls = []

    def counting(name, dim):
        calls.append(name)
        return hash_embedding(name, dim)

    monkeypatch.setattr(data, "hash_embedding", counting)
    synth_generate(config, 0)
    assert len(calls) == config.n_genes + n_modules
    assert len(set(calls)) == len(calls)
