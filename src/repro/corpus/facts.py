"""Ground-truth fact registry for the synthetic PETSc knowledge base.

A :class:`Fact` is an atomic, checkable statement about PETSc that
appears verbatim somewhere in the corpus.  Facts give us three things:

1. **Corpus tagging** — after splitting, chunks are tagged with the fact
   ids whose signatures they contain, so retrieval quality can be
   measured as "did the context contain the facts this question needs".
2. **Simulated LLM grounding** — :class:`repro.llm.SimulatedChatModel`
   answers by selecting facts present in its context (or its parametric
   store) that are relevant to the question.
3. **Mechanical blind grading** — the grader detects which facts and
   falsehoods an answer asserts and applies the paper's Table I rubric.

A :class:`Falsehood` is a statement that is *wrong* about PETSc: either
a misconception planted in a synthetic mailing-list thread (retrieval
noise, the source of RAG's negative impact on three questions in the
paper's Fig. 6a) or a hallucination the simulated LLM can emit when it
lacks grounding.

Detection is signature-based: a fact "appears in" a text when all of its
signature terms occur (identifiers case-sensitively, words
case-insensitively).  Signatures are chosen to be distinctive enough
that unrelated prose does not trigger them.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import TypeVar

from repro.errors import CorpusError
from repro.utils.textproc import sentences

#: A :class:`Fact` or a :class:`Falsehood`: anything with a ``signature``.
_Signed = TypeVar("_Signed", "Fact", "Falsehood")

_IDENT_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$|^-[a-z][a-z0-9_]*$")

#: Distinct lines whose records one registry keeps (least recently read
#: dropped first); several times the corpus, which is ~800 lines.
_LINE_MEMO_SIZE = 4096

#: What one line holds: the terms written in it, and one term set for
#: each of its sentences that holds any.  Term strings are the table's
#: own keys; the line's text is not kept.
_LineRecord = tuple[frozenset[str], tuple[frozenset[str], ...]]

_EMPTY_LINE: _LineRecord = (frozenset(), ())


class _Term:
    """One signature term, compiled: word-boundary containment where
    identifiers match case-sensitively and words case-insensitively."""

    __slots__ = ("term", "ident", "literal", "phrase", "probe", "_search")

    def __init__(self, term: str) -> None:
        self.term = term
        self.ident = _IDENT_RE.match(term) is not None
        self.literal = term if self.ident else term.lower()
        pieces = self.literal.split()
        #: Whether the term has whitespace in it (``least squares``).
        #: Whitespace is all that sentence normalisation changes, so only
        #: a phrase can be in a sentence and not in the line as written,
        #: or the reverse.
        self.phrase = pieces != [self.literal]
        #: A substring of every line that holds the term either way: the
        #: literal, or a phrase's longest whitespace-free piece.
        self.probe = max(pieces, key=len, default="")
        edge = "A-Za-z0-9_" if self.ident else "a-z0-9_"
        self._search = re.compile(
            rf"(?<![{edge}]){re.escape(self.literal)}(?![{edge}])"
        ).search

    def found_in(self, text: str, text_lower: str) -> bool:
        hay = text if self.ident else text_lower
        # Any pattern match contains the literal, so the substring test
        # only skips searches that cannot succeed.
        return self.literal in hay and self._search(hay) is not None


class _TermTable:
    """Compiled signature terms, and what each line holds of them.

    ``terms`` is keyed by the term itself and only ever appended to, so
    its first ``size`` entries never change and a line read against them
    never goes stale: a record is keyed on the line *and* that size, and
    a table that has grown simply asks under a new key.  Records are
    immutable, so threads share them; ``memo_size`` bounds how many are
    kept (0: none, for a throwaway table).
    """

    def __init__(self, memo_size: int = 0) -> None:
        self.terms: dict[str, _Term] = {}
        self.read_line = lru_cache(maxsize=memo_size)(self._read_line)
        # One size is in use at a time, bar a thread caught mid-growth.
        self._by_case = lru_cache(maxsize=2)(self._split_by_case)

    def add(self, terms: Iterable[str]) -> int:
        """Compile those of ``terms`` the table lacks; its size afterwards."""
        for term in set(terms).difference(self.terms):
            self.terms.setdefault(term, _Term(term))
        return len(self.terms)

    def _split_by_case(self, size: int) -> tuple[tuple[_Term, ...], tuple[_Term, ...]]:
        """The first ``size`` terms: the case-sensitive ones, and the rest."""
        first = list(self.terms.values())[:size]
        return tuple(t for t in first if t.ident), tuple(t for t in first if not t.ident)

    def _read_line(self, line: str, size: int) -> _LineRecord:
        cased, uncased = self._by_case(size)
        lower = line.lower()
        # The substring test first: it only skips terms that cannot match.
        maybe = [t for t in cased if t.probe in line]
        maybe += [t for t in uncased if t.probe in lower]
        written = [t for t in maybe if t.found_in(line, lower)]
        # A phrase can be in a sentence of a line it is not written in; any
        # other term is in one of them iff it is written in the line.
        in_sentence = [t for t in maybe if t.phrase or t in written]
        if not in_sentence:
            return _EMPTY_LINE
        per_sentence = []
        for sent in sentences(line):
            sent_lower = sent.lower()
            held = frozenset(t.term for t in in_sentence if t.found_in(sent, sent_lower))
            if held:
                per_sentence.append(held)
        return frozenset(t.term for t in written), tuple(per_sentence)


class TextScan:
    """One text checked against signature terms, line by line.

    A text's scan is the union of its lines' records.  That is exact:
    ``sentences()`` splits on ``str.splitlines()`` before anything else,
    so no sentence crosses a line; no signature term holds a line break
    (:func:`_validate_signature`), and a line break is outside both
    boundary classes, so a term occurs in the text as written iff it
    occurs in some line as written.  ``table`` is the
    :class:`_TermTable` the scan reads and fills on demand (a
    :class:`FactRegistry` passes its own, so each distinct term compiles
    once and each distinct line is read once per registry).
    """

    def __init__(self, table: _TermTable, text: str) -> None:
        self._table = table
        self._lines = text.splitlines()
        self._size = -1  # of the table the lines were last read against
        self._written: frozenset[str] = frozenset()
        self._sentences: list[frozenset[str]] = []

    def _know(self, terms: Iterable[str]) -> None:
        """Read the lines against a table that holds every one of ``terms``."""
        size = self._table.add(terms)
        if size != self._size:
            records = [self._table.read_line(line, size) for line in self._lines]
            self._written = frozenset().union(*[written for written, _ in records])
            self._sentences = [held for _, per_sentence in records for held in per_sentence]
            self._size = size

    def _together(self, signature: tuple[str, ...]) -> bool:
        """Whether one sentence holds every term of ``signature``."""
        return any(held.issuperset(signature) for held in self._sentences)

    def contains(self, term: str) -> bool:
        """Whether ``term`` occurs anywhere in the text."""
        self._know((term,))
        return term in self._written

    def asserted(self, signed: Iterable[_Signed]) -> list[_Signed]:
        """Those of ``signed`` (facts or falsehoods) the text asserts, in order.

        Two checks, both required: every signature term occurs in the
        text as written, and every term occurs within one sentence — so
        terms assembled from *different* statements of a longer text do
        not count.  Neither implies the other: sentences are
        whitespace-normalised, the text is not.
        """
        signed = list(signed)
        self._know(chain.from_iterable(x.signature for x in signed))
        written = self._written
        return [
            x for x in signed if written.issuperset(x.signature) and self._together(x.signature)
        ]


def _validate_signature(label: str, statement: str, signature: tuple[str, ...]) -> None:
    """Every signature term must be one line of text that occurs in the
    owner's (``label``) own statement."""
    if not signature:
        raise CorpusError(f"{label} has an empty signature")
    table = _TermTable()
    table.add(signature)
    scan = TextScan(table, statement)
    for term in signature:
        if term.splitlines() != [term]:
            raise CorpusError(f"{label}: signature term {term!r} is empty or holds a line break")
        if not scan.contains(term):
            raise CorpusError(
                f"{label}: signature term {term!r} does not occur in its own statement"
            )


@dataclass(frozen=True)
class Fact:
    """An atomic true statement about PETSc.

    Attributes
    ----------
    fact_id:
        Dotted identifier, e.g. ``"ksplsqr.rectangular"``.
    statement:
        The canonical sentence as it appears in the corpus.
    signature:
        Terms that must all be present for the fact to count as asserted
        by a text.  Identifiers (CamelCase / ``-option``) match
        case-sensitively.
    topics:
        Identifiers/concepts this fact is about; used to match facts to
        questions.
    """

    fact_id: str
    statement: str
    signature: tuple[str, ...]
    topics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _validate_signature(f"fact {self.fact_id!r}", self.statement, self.signature)


@dataclass(frozen=True)
class Falsehood:
    """A wrong statement about PETSc, detectable in generated answers."""

    false_id: str
    statement: str
    signature: tuple[str, ...]
    topics: tuple[str, ...] = ()
    fabrication: bool = False
    """True when the statement invents a nonexistent API (scored 0 when it
    dominates an answer, per the paper's scoring of the KSPBurb reply)."""

    def __post_init__(self) -> None:
        _validate_signature(f"falsehood {self.false_id!r}", self.statement, self.signature)


@dataclass
class FactRegistry:
    """Lookup table over all facts and falsehoods in the corpus."""

    facts: dict[str, Fact] = field(default_factory=dict)
    falsehoods: dict[str, Falsehood] = field(default_factory=dict)
    #: Compiled signature terms and the memo of lines read against them,
    #: both filled by detection; see :class:`_TermTable` for why a write
    #: to ``facts`` or ``falsehoods`` leaves nothing stale.
    _terms: _TermTable = field(
        default_factory=lambda: _TermTable(_LINE_MEMO_SIZE), init=False, repr=False, compare=False
    )

    def add_fact(self, fact: Fact) -> Fact:
        if fact.fact_id in self.facts:
            raise CorpusError(f"duplicate fact id {fact.fact_id!r}")
        self.facts[fact.fact_id] = fact
        return fact

    def add_falsehood(self, falsehood: Falsehood) -> Falsehood:
        if falsehood.false_id in self.falsehoods:
            raise CorpusError(f"duplicate falsehood id {falsehood.false_id!r}")
        self.falsehoods[falsehood.false_id] = falsehood
        return falsehood

    def fact(self, fact_id: str) -> Fact:
        try:
            return self.facts[fact_id]
        except KeyError:
            raise CorpusError(f"unknown fact id {fact_id!r}") from None

    def falsehood(self, false_id: str) -> Falsehood:
        try:
            return self.falsehoods[false_id]
        except KeyError:
            raise CorpusError(f"unknown falsehood id {false_id!r}") from None

    def statement(self, fact_id: str) -> str:
        return self.fact(fact_id).statement

    def detect(self, text: str) -> tuple[list[Fact], list[Falsehood]]:
        """The facts and the falsehoods ``text`` asserts, from one scan."""
        scan = TextScan(self._terms, text)
        return scan.asserted(self.facts.values()), scan.asserted(self.falsehoods.values())

    def facts_in(self, text: str) -> list[Fact]:
        """All registered facts asserted by ``text``."""
        return TextScan(self._terms, text).asserted(self.facts.values())


def _F(reg: FactRegistry, fact_id: str, statement: str, signature: tuple[str, ...], topics: tuple[str, ...]) -> None:
    reg.add_fact(Fact(fact_id=fact_id, statement=statement, signature=signature, topics=topics))


def _X(
    reg: FactRegistry,
    false_id: str,
    statement: str,
    signature: tuple[str, ...],
    topics: tuple[str, ...],
    fabrication: bool = False,
) -> None:
    reg.add_falsehood(
        Falsehood(
            false_id=false_id,
            statement=statement,
            signature=signature,
            topics=topics,
            fabrication=fabrication,
        )
    )


def default_registry() -> FactRegistry:
    """Build the full fact/falsehood registry for the synthetic corpus.

    The registry is rebuilt on each call (it is cheap); callers that need
    sharing should hold a reference.
    """
    reg = FactRegistry()

    # ---------------------------------------------------------------- KSP basics
    _F(reg, "ksp.abstraction",
       "KSP is the PETSc abstraction for Krylov subspace iterative methods and provides "
       "uniform access to all of the package's linear system solvers.",
       ("KSP", "Krylov", "iterative"), ("KSP",))
    _F(reg, "ksp.default_gmres",
       "The default KSP type is KSPGMRES, restarted GMRES with a default restart of 30 "
       "and classical Gram-Schmidt orthogonalization with iterative refinement.",
       ("KSPGMRES", "restart", "30"), ("KSP", "KSPGMRES", "default"))
    _F(reg, "ksp.settype",
       "The Krylov method is selected with KSPSetType() or at runtime with the option "
       "-ksp_type (for example -ksp_type gmres or -ksp_type cg).",
       ("KSPSetType", "-ksp_type"), ("KSP", "KSPSetType"))
    _F(reg, "ksp.solve_sequence",
       "A linear solve is performed by creating the solver with KSPCreate(), supplying the "
       "matrix with KSPSetOperators(), configuring via KSPSetFromOptions(), and calling KSPSolve().",
       ("KSPCreate", "KSPSetOperators", "KSPSetFromOptions", "KSPSolve"), ("KSP", "KSPSolve"))
    _F(reg, "ksp.setoperators_amat_pmat",
       "KSPSetOperators() accepts two matrices: Amat that defines the linear system and Pmat "
       "from which the preconditioner is constructed; they may be the same matrix.",
       ("KSPSetOperators", "Amat", "Pmat"), ("KSP", "KSPSetOperators"))
    _F(reg, "ksp.reuse_solver",
       "The same KSP object can be reused for a sequence of linear solves; when the matrix "
       "values change, call KSPSetOperators() again and PETSc rebuilds the preconditioner as needed.",
       ("KSP", "KSPSetOperators", "reused"), ("KSP", "KSPSetOperators", "reuse"))
    _F(reg, "ksp.view_option",
       "The option -ksp_view prints the complete configuration of the solver, including the "
       "KSP type, tolerances, and the preconditioner details, after KSPSolve().",
       ("-ksp_view", "KSP"), ("KSP", "-ksp_view"))
    _F(reg, "ksp.solvetranspose",
       "KSPSolveTranspose() solves the transposed system A^T x = b with the same solver "
       "configuration as the forward solve.",
       ("KSPSolveTranspose",), ("KSP", "KSPSolveTranspose", "transpose"))

    # ---------------------------------------------------------------- GMRES
    _F(reg, "gmres.restart_option",
       "The GMRES restart length is changed with KSPGMRESSetRestart() or the option "
       "-ksp_gmres_restart, for example -ksp_gmres_restart 100.",
       ("KSPGMRESSetRestart", "-ksp_gmres_restart"), ("KSPGMRES", "restart"))
    _F(reg, "gmres.memory_grows",
       "GMRES must store one basis vector per iteration up to the restart length, so its "
       "memory usage grows linearly with the restart parameter.",
       ("GMRES", "basis", "restart"), ("KSPGMRES", "memory"))
    _F(reg, "gmres.restart_tradeoff",
       "A larger GMRES restart usually reduces the iteration count but increases memory and "
       "orthogonalization cost; a restart that is too small can cause stagnation.",
       ("restart", "stagnation"), ("KSPGMRES", "restart", "stagnation"))
    _F(reg, "gmres.nonsymmetric",
       "GMRES is applicable to general nonsymmetric linear systems and minimizes the residual "
       "norm over the Krylov subspace at each iteration.",
       ("GMRES", "nonsymmetric", "residual"), ("KSPGMRES", "nonsymmetric"))
    _F(reg, "gmres.modified_gs",
       "For ill-conditioned problems, modified Gram-Schmidt orthogonalization can be selected "
       "with -ksp_gmres_modifiedgramschmidt at some loss of parallel performance.",
       ("-ksp_gmres_modifiedgramschmidt",), ("KSPGMRES", "orthogonalization"))
    _F(reg, "fgmres.variable_pc",
       "KSPFGMRES is flexible GMRES, which allows the preconditioner to change at every "
       "iteration, for example when the preconditioner is itself an iterative solve.",
       ("KSPFGMRES", "flexible", "preconditioner"), ("KSPFGMRES", "flexible"))
    _F(reg, "fgmres.right_only",
       "KSPFGMRES supports right preconditioning only, so it cannot be combined with "
       "-ksp_pc_side left.",
       ("KSPFGMRES", "right"), ("KSPFGMRES", "right", "preconditioning"))
    _F(reg, "lgmres.augment",
       "KSPLGMRES augments the restarted GMRES subspace with approximations to the error "
       "from previous cycles, often improving convergence over plain restarted GMRES.",
       ("KSPLGMRES", "augments"), ("KSPLGMRES",))
    _F(reg, "dgmres.deflation",
       "KSPDGMRES adaptively deflates the smallest eigenvalues to mitigate the convergence "
       "slowdown caused by restarting.",
       ("KSPDGMRES", "deflates"), ("KSPDGMRES",))

    # ---------------------------------------------------------------- CG family
    _F(reg, "cg.spd",
       "KSPCG, the conjugate gradient method, requires the matrix (and preconditioner) to be "
       "symmetric positive definite.",
       ("KSPCG", "symmetric", "positive"), ("KSPCG", "symmetric"))
    _F(reg, "cg.short_recurrence",
       "Conjugate gradient uses short recurrences, so its memory requirement is a small "
       "constant number of work vectors independent of the iteration count.",
       ("recurrences", "constant", "vectors"), ("KSPCG", "memory"))
    _F(reg, "cg.indefinite_fail",
       "Applying CG to an indefinite or nonsymmetric matrix can break down or diverge; use "
       "KSPMINRES for symmetric indefinite systems or KSPGMRES for nonsymmetric ones.",
       ("indefinite", "KSPMINRES", "KSPGMRES"), ("KSPCG", "indefinite"))
    _F(reg, "cg.matrix_check",
       "PETSc does not verify symmetry before running KSPCG; the user is responsible for "
       "supplying a symmetric positive definite operator.",
       ("KSPCG", "symmetry"), ("KSPCG", "symmetric", "check"))
    _F(reg, "minres.symmetric_indefinite",
       "KSPMINRES solves symmetric indefinite systems, minimizing the residual norm with "
       "short recurrences.",
       ("KSPMINRES", "indefinite"), ("KSPMINRES", "symmetric", "indefinite"))
    _F(reg, "symmlq.symmetric",
       "KSPSYMMLQ also targets symmetric indefinite matrices and can be preferable to MINRES "
       "when the residual norm is not the quantity of interest.",
       ("KSPSYMMLQ", "indefinite"), ("KSPSYMMLQ", "symmetric"))
    _F(reg, "cgne.normal",
       "KSPCGNE applies conjugate gradient to the normal equations A^T A x = A^T b without "
       "explicitly forming the product matrix.",
       ("KSPCGNE", "normal"), ("KSPCGNE", "normal equations"))

    # ---------------------------------------------------------------- BiCGStab family
    _F(reg, "bcgs.nonsymmetric",
       "KSPBCGS, the stabilized biconjugate gradient method BiCGStab, handles general "
       "nonsymmetric systems with short recurrences and modest memory use.",
       ("KSPBCGS", "nonsymmetric"), ("KSPBCGS", "nonsymmetric"))
    _F(reg, "bcgs.no_transpose",
       "Unlike BiCG, BiCGStab does not require products with the transpose of the matrix, "
       "which makes it usable with matrix-free operators.",
       ("BiCGStab", "transpose"), ("KSPBCGS", "transpose", "matrix-free"))
    _F(reg, "ibcgs.reductions",
       "KSPIBCGS is a reformulated BiCGStab that combines the inner products into a single "
       "global reduction per iteration, improving scalability on large process counts.",
       ("KSPIBCGS", "reduction"), ("KSPIBCGS", "scalability", "latency"))
    _F(reg, "bcgsl.ell",
       "KSPBCGSL generalizes BiCGStab with an ell-dimensional minimization at each step "
       "(-ksp_bcgsl_ell), which can smooth erratic convergence.",
       ("KSPBCGSL", "-ksp_bcgsl_ell"), ("KSPBCGSL",))
    _F(reg, "tfqmr.smooth",
       "KSPTFQMR is transpose-free QMR; its residual history is typically smoother than "
       "BiCGStab's, though per-iteration cost is similar.",
       ("KSPTFQMR", "transpose-free"), ("KSPTFQMR",))

    # ---------------------------------------------------------------- Least squares (case study 1)
    _F(reg, "ksplsqr.rectangular",
       "KSP can also be used to solve least squares problems, using, for example, KSPLSQR, "
       "which accepts rectangular (non-square) matrices.",
       ("KSPLSQR", "least squares", "rectangular"), ("KSPLSQR", "rectangular", "least squares"))
    _F(reg, "ksplsqr.normal_equiv",
       "LSQR is mathematically equivalent to applying conjugate gradient to the normal "
       "equations but is numerically more stable.",
       ("LSQR", "normal", "stable"), ("KSPLSQR", "normal equations"))
    _F(reg, "ksplsqr.no_invert",
       "The matrix passed to KSPLSQR does not need to be invertible; LSQR computes the "
       "minimum-norm least squares solution for over- or under-determined systems.",
       ("KSPLSQR", "invertible", "least squares"), ("KSPLSQR", "invertible"))
    _F(reg, "ksplsqr.pc_normal",
       "When preconditioning KSPLSQR, the preconditioner is applied to the normal equations "
       "operator A^T A, and PCNONE is the common default choice.",
       ("KSPLSQR", "PCNONE", "normal"), ("KSPLSQR", "preconditioner"))

    # ---------------------------------------------------------------- Richardson / Chebyshev
    _F(reg, "richardson.relaxation",
       "KSPRICHARDSON implements the Richardson iteration x_{k+1} = x_k + scale * B(b - A x_k), "
       "where B is the preconditioner; with -ksp_richardson_scale one sets the damping factor.",
       ("KSPRICHARDSON", "-ksp_richardson_scale"), ("KSPRICHARDSON",))
    _F(reg, "chebyshev.bounds",
       "KSPCHEBYSHEV requires estimates of the smallest and largest eigenvalues of the "
       "preconditioned operator, set with KSPChebyshevSetEigenvalues() or estimated automatically.",
       ("KSPCHEBYSHEV", "eigenvalues"), ("KSPCHEBYSHEV", "eigenvalues"))
    _F(reg, "chebyshev.no_reductions",
       "Chebyshev iteration performs no inner products, so it avoids global reductions "
       "entirely and is attractive as a multigrid smoother on many processes.",
       ("Chebyshev", "inner products", "reductions"), ("KSPCHEBYSHEV", "smoother", "latency"))

    # ---------------------------------------------------------------- Pipelined methods
    _F(reg, "pipecg.overlap",
       "KSPPIPECG is pipelined conjugate gradient: it overlaps the global reduction needed "
       "for the inner products with the matrix-vector product and preconditioner application.",
       ("KSPPIPECG", "reduction", "overlaps"), ("KSPPIPECG", "pipelined", "latency"))
    _F(reg, "pipelined.async",
       "Pipelined Krylov methods require a non-blocking MPI implementation (MPI_Iallreduce) "
       "to realize their latency-hiding benefit.",
       ("MPI_Iallreduce", "Pipelined"), ("KSPPIPECG", "MPI", "latency"))
    _F(reg, "pipelined.stability",
       "Pipelined variants can be less numerically stable than their classical counterparts; "
       "residual replacement strategies partially compensate.",
       ("Pipelined", "stable", "residual replacement"), ("KSPPIPECG", "stability"))
    _F(reg, "groppcg.variant",
       "KSPGROPPCG is an alternative pipelined conjugate gradient with two non-blocking "
       "reductions per iteration, named after William Gropp's variant.",
       ("KSPGROPPCG", "non-blocking"), ("KSPGROPPCG", "pipelined"))

    # ---------------------------------------------------------------- Convergence control
    _F(reg, "conv.defaults",
       "By default KSP uses a relative tolerance of 1e-5, an absolute tolerance of 1e-50, a "
       "divergence tolerance of 1e4, and a maximum of 10000 iterations.",
       ("1e-5", "1e-50", "10000"), ("KSP", "tolerances", "defaults"))
    _F(reg, "conv.settolerances",
       "Tolerances are set with KSPSetTolerances() or the runtime options -ksp_rtol, "
       "-ksp_atol, -ksp_divtol, and -ksp_max_it.",
       ("KSPSetTolerances", "-ksp_rtol", "-ksp_atol", "-ksp_max_it"), ("KSP", "tolerances", "KSPSetTolerances"))
    _F(reg, "conv.reason",
       "KSPGetConvergedReason() reports why the iteration stopped; positive KSPConvergedReason "
       "values indicate convergence and negative values such as KSP_DIVERGED_ITS indicate failure.",
       ("KSPGetConvergedReason", "KSP_DIVERGED_ITS"), ("KSP", "convergence", "KSPGetConvergedReason"))
    _F(reg, "conv.reason_option",
       "The option -ksp_converged_reason prints the convergence reason and iteration count "
       "after each solve.",
       ("-ksp_converged_reason",), ("KSP", "convergence", "-ksp_converged_reason"))
    _F(reg, "conv.monitor",
       "The option -ksp_monitor prints the preconditioned residual norm at each iteration, "
       "while -ksp_monitor_true_residual also prints the true (unpreconditioned) residual norm.",
       ("-ksp_monitor", "-ksp_monitor_true_residual"), ("KSP", "monitor"))
    _F(reg, "conv.monitorset",
       "User-defined convergence monitors are registered with KSPMonitorSet() and are called "
       "at each iteration with the current iterate's residual norm.",
       ("KSPMonitorSet",), ("KSP", "monitor", "KSPMonitorSet"))
    _F(reg, "conv.default_test_norm",
       "The default convergence test compares the preconditioned residual norm against "
       "rtol times the norm of the right-hand side.",
       ("preconditioned residual", "rtol"), ("KSP", "convergence", "norm"))
    _F(reg, "conv.true_residual_norm",
       "With right preconditioning, or using KSPSetNormType() with KSP_NORM_UNPRECONDITIONED, "
       "convergence is instead tested on the true residual norm b - Ax.",
       ("KSPSetNormType", "KSP_NORM_UNPRECONDITIONED"), ("KSP", "convergence", "norm"))
    _F(reg, "conv.initial_guess",
       "KSP assumes a zero initial guess by default; call KSPSetInitialGuessNonzero() or use "
       "-ksp_initial_guess_nonzero to iterate from the vector passed to KSPSolve().",
       ("KSPSetInitialGuessNonzero", "-ksp_initial_guess_nonzero"), ("KSP", "initial guess"))
    _F(reg, "conv.iterations",
       "KSPGetIterationNumber() returns the number of iterations used by the most recent "
       "linear solve.",
       ("KSPGetIterationNumber",), ("KSP", "iterations"))
    _F(reg, "conv.custom_test",
       "A custom convergence criterion can be installed with KSPSetConvergenceTest(), "
       "replacing the default KSPConvergedDefault() test.",
       ("KSPSetConvergenceTest", "KSPConvergedDefault"), ("KSP", "convergence", "custom"))

    # ---------------------------------------------------------------- Preconditioning
    _F(reg, "pc.concept",
       "Preconditioning transforms the linear system into one with the same solution but "
       "more favorable spectral properties, usually reducing Krylov iteration counts dramatically.",
       ("Preconditioning", "spectral"), ("PC", "preconditioning"))
    _F(reg, "pc.default",
       "The default preconditioner is PCILU (ILU(0)) for a single process and PCBJACOBI with "
       "ILU(0) on each block when running in parallel.",
       ("PCILU", "PCBJACOBI"), ("PC", "default", "preconditioner", "serial", "parallel"))
    _F(reg, "pc.side_default",
       "PETSc applies the preconditioner on the left by default for most KSP types; right "
       "preconditioning is selected with KSPSetPCSide() or -ksp_pc_side right.",
       ("KSPSetPCSide", "-ksp_pc_side"), ("PC", "side", "KSP"))
    _F(reg, "pc.settype",
       "The preconditioner is selected with PCSetType() or the option -pc_type, for example "
       "-pc_type jacobi, -pc_type ilu, or -pc_type gamg.",
       ("PCSetType", "-pc_type"), ("PC", "PCSetType"))
    _F(reg, "pcjacobi.diag",
       "PCJACOBI preconditions with the inverse of the matrix diagonal, which is cheap, "
       "embarrassingly parallel, and works with matrix-free operators that provide a diagonal.",
       ("PCJACOBI", "diagonal"), ("PCJACOBI",))
    _F(reg, "pcbjacobi.blocks",
       "PCBJACOBI applies an inner preconditioner (ILU(0) by default) independently on each "
       "block, with one block per MPI process by default.",
       ("PCBJACOBI", "block"), ("PCBJACOBI", "parallel"))
    _F(reg, "pcasm.overlap",
       "PCASM, the additive Schwarz method, extends block Jacobi with overlapping subdomains; "
       "the overlap is set with PCASMSetOverlap() or -pc_asm_overlap.",
       ("PCASM", "-pc_asm_overlap"), ("PCASM", "overlap", "parallel"))
    _F(reg, "pcgamg.amg",
       "PCGAMG is PETSc's native algebraic multigrid preconditioner, effective for elliptic "
       "problems and configured with -pc_gamg_* options.",
       ("PCGAMG", "multigrid", "elliptic"), ("PCGAMG", "multigrid"))
    _F(reg, "pcilu.zeropivot",
       "An ILU factorization can fail with a zero pivot; the options -pc_factor_shift_type "
       "nonzero or positive_definite shift the diagonal to recover.",
       ("-pc_factor_shift_type", "pivot"), ("PCILU", "zero pivot"))
    _F(reg, "pcilu.levels",
       "Fill levels for incomplete factorization are controlled with -pc_factor_levels; "
       "higher levels improve robustness at greater memory cost.",
       ("-pc_factor_levels",), ("PCILU", "fill"))
    _F(reg, "pcfieldsplit.blocks",
       "PCFIELDSPLIT builds preconditioners for block systems such as saddle-point problems "
       "by composing solvers for each field, configured with -pc_fieldsplit_type.",
       ("PCFIELDSPLIT", "-pc_fieldsplit_type"), ("PCFIELDSPLIT", "saddle-point"))
    _F(reg, "pcsor.gpu",
       "PCSOR applies successive over-relaxation sweeps; note it is sequential within a "
       "process and has limited efficiency on GPUs.",
       ("PCSOR", "over-relaxation"), ("PCSOR",))
    _F(reg, "pcnone.identity",
       "PCNONE applies no preconditioning (the identity), useful for comparing raw Krylov "
       "convergence or when the operator is already well conditioned.",
       ("PCNONE", "identity"), ("PCNONE",))

    # ---------------------------------------------------------------- Direct solve via KSP
    _F(reg, "preonly.direct",
       "A direct solve is obtained with -ksp_type preonly -pc_type lu (KSPPREONLY applies the "
       "preconditioner exactly once and performs no Krylov iterations).",
       ("KSPPREONLY", "-pc_type lu"), ("KSPPREONLY", "direct", "PCLU"))
    _F(reg, "preonly.check",
       "With KSPPREONLY the preconditioner must be an exact solve such as PCLU or PCCHOLESKY; "
       "otherwise KSPSolve() returns an inaccurate answer without error.",
       ("KSPPREONLY", "PCLU", "PCCHOLESKY"), ("KSPPREONLY", "exact"))
    _F(reg, "pclu.parallel",
       "PCLU in parallel requires an external package such as MUMPS or SuperLU_DIST, selected "
       "with -pc_factor_mat_solver_type mumps.",
       ("PCLU", "MUMPS", "-pc_factor_mat_solver_type"), ("PCLU", "parallel", "MUMPS"))

    # ---------------------------------------------------------------- Matrices / assembly (case study 2)
    _F(reg, "mat.setvalues",
       "Matrix entries are inserted with MatSetValues(); the matrix cannot be used until "
       "MatAssemblyBegin() and MatAssemblyEnd() have been called.",
       ("MatSetValues", "MatAssemblyBegin", "MatAssemblyEnd"), ("Mat", "assembly"))
    _F(reg, "mat.preallocation",
       "Preallocating the nonzero structure (for example with MatSeqAIJSetPreallocation or "
       "MatMPIAIJSetPreallocation) is critical for fast matrix assembly; without it insertion "
       "can be orders of magnitude slower due to repeated memory allocation.",
       ("MatSeqAIJSetPreallocation", "Preallocating"), ("Mat", "preallocation", "assembly"))
    _F(reg, "mat.info_option",
       "As described above, the option -info will print information about the success of "
       "preallocation during matrix assembly, including how many mallocs were needed.",
       ("-info", "preallocation", "assembly"), ("Mat", "-info", "preallocation"))
    _F(reg, "mat.aij_default",
       "MATAIJ (compressed sparse row) is the default matrix format and performs well for "
       "most PDE-based sparse systems.",
       ("MATAIJ", "sparse"), ("Mat", "AIJ"))
    _F(reg, "mat.symmetric_option",
       "Marking a matrix symmetric with MatSetOption(mat, MAT_SYMMETRIC, PETSC_TRUE) lets "
       "solvers exploit symmetry.",
       ("MatSetOption", "MAT_SYMMETRIC"), ("Mat", "symmetric"))

    # ---------------------------------------------------------------- Null spaces / singular systems
    _F(reg, "nullspace.set",
       "For a singular system such as a pure Neumann Poisson problem, attach the null space "
       "with MatSetNullSpace() so the Krylov method projects it out of the solution.",
       ("MatSetNullSpace", "singular"), ("nullspace", "singular", "KSP"))
    _F(reg, "nullspace.constant",
       "MatNullSpaceCreate() with has_cnst = PETSC_TRUE declares that the null space contains "
       "the constant vector, the common case for Neumann boundary conditions.",
       ("MatNullSpaceCreate", "PETSC_TRUE"), ("nullspace", "constant"))
    _F(reg, "nullspace.pc_care",
       "Even with the null space set, direct factorization preconditioners will fail on a "
       "singular matrix; iterative preconditioners such as PCJACOBI or PCGAMG should be used.",
       ("null space", "singular", "PCJACOBI"), ("nullspace", "preconditioner"))

    # ---------------------------------------------------------------- Matrix-free
    _F(reg, "mf.shell",
       "A matrix-free operator is defined with MatCreateShell() plus MatShellSetOperation() "
       "to supply the user's multiply routine for MATOP_MULT.",
       ("MatCreateShell", "MatShellSetOperation", "MATOP_MULT"),
       ("matrix-free", "MatShell", "assemble", "operator", "routine"))
    _F(reg, "mf.pc_restriction",
       "Most preconditioners need access to the matrix entries, so with a shell matrix one "
       "typically uses PCNONE, PCSHELL, or supplies a separate assembled matrix as Pmat for "
       "building the preconditioner.",
       ("PCSHELL", "Pmat", "shell"), ("matrix-free", "preconditioner"))
    _F(reg, "mf.snes_fd",
       "For nonlinear solves, -snes_mf applies the Jacobian matrix-free with finite "
       "differences of the residual, avoiding explicit Jacobian assembly.",
       ("-snes_mf", "finite"), ("matrix-free", "SNES"))

    # ---------------------------------------------------------------- Performance / profiling
    _F(reg, "perf.logview",
       "The option -log_view prints a performance summary at PetscFinalize(), including time "
       "and flop rates for each solver stage and event.",
       ("-log_view", "PetscFinalize"),
       ("performance", "-log_view", "profiling", "time", "measure", "timing"))
    _F(reg, "perf.stages",
       "Custom profiling stages are delimited with PetscLogStageRegister() and "
       "PetscLogStagePush()/PetscLogStagePop() to separate setup from solve time in -log_view output.",
       ("PetscLogStageRegister", "PetscLogStagePush"), ("performance", "stages", "profiling"))
    _F(reg, "perf.reductions_scaling",
       "At large process counts the global reductions in Krylov inner products become a "
       "scalability bottleneck, motivating pipelined methods and Chebyshev smoothers.",
       ("reductions", "scalability", "pipelined"),
       ("performance", "latency", "scalability", "scaling", "MPI", "ranks", "bottleneck"))

    # ---------------------------------------------------------------- Options / help
    _F(reg, "options.help",
       "Running any PETSc program with -help lists the options relevant to the solvers in "
       "use, including all KSP and PC options.",
       ("-help",), ("options", "-help"))
    _F(reg, "options.database",
       "Options may be supplied on the command line, in a file via -options_file, or in the "
       "environment variable PETSC_OPTIONS; they are read when XXXSetFromOptions() is called.",
       ("-options_file", "PETSC_OPTIONS"), ("options", "database"))

    # ---------------------------------------------------------------- No such function (KSPBurb)
    _F(reg, "ksp.naming",
       "All built-in Krylov method implementations are registered in KSPList; KSPGetType() "
       "returns the name of a solver, and unknown type names passed to KSPSetType() raise an error.",
       ("KSPList", "KSPSetType"), ("KSP", "naming", "registry"))

    # ================================================================ Falsehoods
    _X(reg, "false.kspburb",
       "KSPBurb is an implementation of a Krylov subspace method in PETSc used to solve "
       "systems of linear equations; specifically, it is a block version of the "
       "unpreconditioned Richardson iterative method.",
       ("KSPBurb", "Richardson"), ("KSPBurb",), fabrication=True)
    _X(reg, "false.cg_nonsymmetric",
       "KSPCG is a good general-purpose choice and converges reliably for nonsymmetric "
       "matrices as well.",
       ("KSPCG", "nonsymmetric", "reliably"), ("KSPCG", "nonsymmetric"))
    _X(reg, "false.gmres_constant_memory",
       "GMRES memory use is a small constant independent of the restart parameter, so the "
       "restart value only affects speed.",
       ("GMRES", "constant", "independent", "restart"), ("KSPGMRES", "memory"))
    _X(reg, "false.lsqr_square_only",
       "KSP solvers in PETSc fundamentally require the operator to be square and invertible, "
       "so a rectangular matrix must first be converted by forming the normal equations yourself.",
       ("square", "invertible", "normal equations"), ("KSPLSQR", "rectangular"))
    _X(reg, "false.info_imaginary_option",
       "Use the option -mat_view_preallocation_stats to have PETSc print a preallocation "
       "success report during assembly.",
       ("-mat_view_preallocation_stats",), ("Mat", "-info", "preallocation"), fabrication=True)
    _X(reg, "false.rtol_default",
       "The default KSP relative tolerance is 1e-8, tightened from older releases.",
       ("1e-8", "relative"), ("KSP", "tolerances", "defaults"))
    _X(reg, "false.monitor_option",
       "Use -ksp_print_residuals to display the residual norm at each iteration.",
       ("-ksp_print_residuals",), ("KSP", "monitor"), fabrication=True)
    _X(reg, "false.fgmres_left",
       "Flexible GMRES in PETSc defaults to left preconditioning like the other KSP methods.",
       ("Flexible", "left", "preconditioning"), ("KSPFGMRES", "right", "preconditioning"))
    _X(reg, "false.pipecg_always_faster",
       "KSPPIPECG is numerically identical to KSPCG and is always faster, so it should "
       "simply always be preferred.",
       ("KSPPIPECG", "identical", "always"), ("KSPPIPECG", "stability"))
    _X(reg, "false.asm_no_overlap",
       "PCASM is just another name for block Jacobi; the subdomains never overlap.",
       ("PCASM", "never", "overlap"), ("PCASM", "overlap"))
    _X(reg, "false.nullspace_rhs",
       "For singular systems it suffices to subtract the mean from the right-hand side; "
       "PETSc has no interface for declaring a null space.",
       ("no interface", "null space"), ("nullspace", "singular"))
    _X(reg, "false.preonly_iterates",
       "KSPPREONLY performs a few cheap Krylov iterations to polish the preconditioner "
       "output, so it works fine with ILU.",
       ("KSPPREONLY", "polish"), ("KSPPREONLY", "exact"))
    _X(reg, "false.direct_option",
       "A direct solve is requested with the single option -ksp_direct.",
       ("-ksp_direct",), ("KSPPREONLY", "direct"), fabrication=True)
    _X(reg, "false.logview_name",
       "Performance summaries are printed with the option -petsc_profile at exit.",
       ("-petsc_profile",), ("performance", "-log_view", "profiling"), fabrication=True)
    _X(reg, "false.chebyshev_no_bounds",
       "KSPCHEBYSHEV needs no spectral information; it adapts automatically with no setup.",
       ("KSPCHEBYSHEV", "no spectral"), ("KSPCHEBYSHEV", "eigenvalues"))
    _X(reg, "false.mumps_builtin",
       "PETSc's PCLU runs in parallel out of the box without any external package.",
       ("PCLU", "out of the box"), ("PCLU", "parallel", "MUMPS"))

    return reg
