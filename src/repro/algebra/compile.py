"""Calculus → algebra compilation (Section 5.4).

The compiler turns a range-restricted calculus query into an operator
plan.  The distinguishing move is the treatment of path and attribute
variables: "by analysis of the query using schema information, one can
find candidate valuations for the P_i and A_j.  Therefore, one can
transform the query into a union of queries with no attribute or path
variables.  This may result in introducing new variables to quantify
over the elements of a set or a list."

Concretely, each path predicate is compiled against a *frontier* of
(plan, current variable, candidate types):

* ground selections/indexings/dereferences become :class:`StepOp`s,
* variable indexings become :class:`UnnestOp`s (the "new variables" the
  paper mentions),
* an attribute variable fans the frontier out over every attribute its
  candidate types carry, binding the variable to the chosen constant,
* a path variable is compiled by one of two strategies, chosen by the
  caller (``structural=``): the default is one pre/post range scan over
  :mod:`repro.structindex` (:class:`StructuralScanOp`, with a directly
  following selection fused into a :class:`StructuralAttrScanOp` and a
  directly following bound variable into an :class:`IntervalJoinOp`)
  — the plan a store serves; ``structural=False`` is the paper's fan-out over
  every schema path from the current candidate types, each branch the
  step chain plus a :class:`MakePathOp` that reconstructs the
  first-class path value — the union-of-plans reference.  Only the
  requested strategy is built.

Sub-formulas outside the conjunctive (⋆) core (negation, disjunction,
quantifiers) compile to the boolean-combination operators; anything the
algebra does not model natively falls back to a per-row
:class:`FormulaOp` — the compilation stays complete.

This compilation is only sound under the **restricted** path semantics;
compiling a liberal-semantics query raises
:class:`~repro.errors.CompilationError` (the paper: the liberal setting
"should include some form of transitive closure/fixpoint operator").
"""

from __future__ import annotations

from repro.errors import CompilationError
from repro.calculus.formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    In,
    Not,
    Or,
    PathAtom,
    Pred,
    Query,
    Subset,
)
from repro.calculus.inference import (
    _attr_targets,
    _deref_type,
    _term_type,
)
from repro.calculus.terms import (
    AttName,
    AttVar,
    Bind,
    Const,
    DataVar,
    Deref,
    Index,
    PathTerm,
    PathVar,
    Sel,
    SetBind,
    term_variables,
)
from repro.oodb.schema import Schema
from repro.oodb.types import (
    ClassType,
    ListType,
    SetType,
    TupleType,
    Type,
    UnionType,
    is_system_union,
)
from repro.paths.enumeration import RESTRICTED
from repro.paths.schema_paths import (
    SchemaAttr,
    SchemaDeref,
    SchemaElem,
    SchemaIndex,
    enumerate_schema_paths,
    schema_path_targets,
)
from repro.algebra.operators import (
    BindOp,
    FormulaOp,
    IntervalJoinOp,
    MakePathOp,
    NegationOp,
    Operator,
    ProjectOp,
    SeedOp,
    SelectOp,
    StepOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    UnnestOp,
)


#: Test-only corruption switch for the plancheck mutation test: set to
#: ``"interval_probe_misbound"`` (the fused interval join probes the
#: variable the scan itself binds) to seed a broken plan the verifier
#: must catch under the stage tag ``compile``.  Production value is
#: ``None``; never set it outside tests.
_TEST_MUTATION: str | None = None


def compile_query(query: Query, schema: Schema,
                  path_semantics: str | None = None,
                  structural: bool = True) -> ProjectOp:
    """Compile a calculus query to an executable plan.

    The path-semantics mode is passed by value, so compiled plans never
    reference a mutable evaluation context.  ``structural`` picks the
    path-variable strategy: range scans (default) or, when ``False``,
    the Section 5.4 union-of-plans.
    """
    if path_semantics is not None and path_semantics != RESTRICTED:
        raise CompilationError(
            "the algebraization requires the restricted path semantics; "
            "the liberal semantics would need a transitive-closure "
            "operator (Section 5.4)")
    compiler = _Compiler(schema, structural)
    formula = query.formula
    # unwrap top-level existentials: the projection removes them anyway
    while isinstance(formula, Exists):
        formula = formula.body
    plan = compiler.compile_formula(SeedOp(), formula, set())
    project = ProjectOp(plan, list(query.head))
    # candidate types per variable: final only here, at the root
    project.var_types = {variable: _dedup(types) for variable, types
                         in compiler.candidates.items()}
    for select in compiler.contains_selects:
        # every candidate type a class ⇒ the variable only binds oids
        # ⇒ an empty index key set proves the select passes nothing
        subject = select.atom.arguments[0]
        types = (isinstance(subject, DataVar)
                 and project.var_types.get(subject))
        select.oid_only = bool(types) and all(
            isinstance(tp, ClassType) for tp in types)
    return project


class _Compiler:
    def __init__(self, schema: Schema, structural: bool) -> None:
        self.schema = schema
        self.candidates: dict = {}   # var -> [Type] (inference-style)
        #: the constant-pattern ``contains`` selects built so far
        self.contains_selects: list[SelectOp] = []
        self._fresh = 0
        #: unbound path variables compile to StructuralScanOp when set,
        #: to the union-of-plans fan-out (Section 5.4) otherwise
        self.structural = structural

    def fresh_var(self, stem: str = "nav") -> DataVar:
        self._fresh += 1
        return DataVar(f"_{stem}{self._fresh}")

    # -- formulas ----------------------------------------------------------

    def compile_formula(self, plan: Operator, formula: Formula,
                        bound: set) -> Operator:
        if isinstance(formula, And):
            return self._compile_and(plan, list(formula.conjuncts), bound)
        return self._compile_conjunct(plan, formula, bound)

    def _compile_and(self, plan: Operator, conjuncts: list[Formula],
                     bound: set) -> Operator:
        pending = list(conjuncts)
        while pending:
            progressed = False
            for position, conjunct in enumerate(pending):
                if self._ready(conjunct, bound):
                    plan = self._compile_conjunct(plan, conjunct, bound)
                    del pending[position]
                    progressed = True
                    break
            if not progressed:
                raise CompilationError(
                    "conjunction is not range-restricted: "
                    + "; ".join(str(c) for c in pending))
        return plan

    def _ready(self, conjunct: Formula, bound: set) -> bool:
        if isinstance(conjunct, PathAtom):
            return all(v in bound
                       for v in term_variables(conjunct.root))
        if isinstance(conjunct, Eq):
            left = [v for v in term_variables(conjunct.left)
                    if v not in bound]
            right = [v for v in term_variables(conjunct.right)
                     if v not in bound]
            if not left and not right:
                return True
            if not left and isinstance(conjunct.right,
                                       (DataVar, PathVar, AttVar)):
                return True
            if not right and isinstance(conjunct.left,
                                        (DataVar, PathVar, AttVar)):
                return True
            return False
        if isinstance(conjunct, In):
            return all(v in bound
                       for v in term_variables(conjunct.collection))
        if isinstance(conjunct, (Pred, Subset, Not)):
            return all(v in bound for v in conjunct.free_variables())
        if isinstance(conjunct, (Or, Exists, Forall)):
            return True  # handled recursively / by fallback
        return all(v in bound for v in conjunct.free_variables())

    def _compile_conjunct(self, plan: Operator, conjunct: Formula,
                          bound: set) -> Operator:
        if isinstance(conjunct, PathAtom):
            return self._compile_path_atom(plan, conjunct, bound)
        if isinstance(conjunct, Eq):
            return self._compile_eq(plan, conjunct, bound)
        if isinstance(conjunct, In):
            return self._compile_in(plan, conjunct, bound)
        if isinstance(conjunct, (Pred, Subset)):
            select = SelectOp(plan, conjunct)
            if select.pattern is not None:
                self.contains_selects.append(select)
            return select
        if isinstance(conjunct, Not):
            return NegationOp(plan, conjunct.child)
        if isinstance(conjunct, Or):
            branches = []
            branch_bounds = []
            for disjunct in conjunct.disjuncts:
                branch_bound = set(bound)
                branches.append(self.compile_formula(
                    plan, disjunct, branch_bound))
                branch_bounds.append(branch_bound)
            shared = set.intersection(*branch_bounds) if branch_bounds \
                else set(bound)
            bound |= shared
            return UnionOp(branches)
        if isinstance(conjunct, Exists):
            inner_bound = set(bound)
            plan = self.compile_formula(plan, conjunct.body, inner_bound)
            bound |= inner_bound
            return plan
        # Forall and anything else: complete fallback
        return FormulaOp(plan, conjunct)

    # -- simple atoms ---------------------------------------------------------

    def _compile_eq(self, plan: Operator, atom: Eq,
                    bound: set) -> Operator:
        left_unbound = [v for v in term_variables(atom.left)
                        if v not in bound]
        right_unbound = [v for v in term_variables(atom.right)
                         if v not in bound]
        if not left_unbound and not right_unbound:
            return SelectOp(plan, atom)
        if not right_unbound and isinstance(atom.left,
                                            (DataVar, PathVar, AttVar)):
            variable, term = atom.left, atom.right
        elif not left_unbound and isinstance(atom.right,
                                             (DataVar, PathVar, AttVar)):
            variable, term = atom.right, atom.left
        else:
            raise CompilationError(f"cannot compile equality {atom}")
        bound.add(variable)
        inferred = _term_type(term, self.schema, self.candidates)
        if inferred is not None and isinstance(variable, DataVar):
            self.candidates.setdefault(variable, []).append(inferred)
        return BindOp(plan, variable, term)

    def _compile_in(self, plan: Operator, atom: In,
                    bound: set) -> Operator:
        element_unbound = [v for v in term_variables(atom.element)
                           if v not in bound]
        if not element_unbound:
            return SelectOp(plan, atom)
        if not isinstance(atom.element, DataVar):
            raise CompilationError(
                f"membership element pattern unsupported: {atom}")
        bound.add(atom.element)
        collection_type = _term_type(
            atom.collection, self.schema, self.candidates)
        element_types = []
        if isinstance(collection_type, (ListType, SetType)):
            element_types.append(collection_type.element)
        elif isinstance(collection_type, UnionType):
            for _, branch in collection_type.branches:
                if isinstance(branch, (ListType, SetType)):
                    element_types.append(branch.element)
        if element_types:
            self.candidates.setdefault(
                atom.element, []).extend(element_types)
        return UnnestOp(plan, atom.collection, atom.element,
                        mode="collection")

    # -- path predicates ------------------------------------------------------

    def _compile_path_atom(self, plan: Operator, atom: PathAtom,
                           bound: set) -> Operator:
        root_types = self._types_of_term(atom.root)
        if root_types is None:
            # untypable root: stay complete via the interpreter
            for variable in atom.path.variables():
                bound.add(variable)
            return FormulaOp(plan, atom)
        start = self.fresh_var()
        plan = BindOp(plan, start, atom.root)
        result = self._expand_path(plan, start, root_types, atom, bound)
        for variable in atom.path.variables():
            bound.add(variable)
        return result

    def _expand_path(self, plan: Operator, start: DataVar,
                     root_types: list[Type],
                     atom: PathAtom, bound: set) -> Operator:
        # Each frontier entry carries its own bound-variable set: a
        # variable bound in one union branch must be bound afresh in the
        # others (it is the same logical variable, realised per branch).
        frontier: list[tuple[Operator, DataVar, list[Type], set]] = [
            (plan, start, root_types, set(bound))]
        for component in atom.path.components:
            frontier = self._advance(frontier, component)
            if not frontier:
                break
        if not frontier:
            # statically impossible: an always-empty plan
            return SelectOp(plan, Eq(Const(0), Const(1)))
        if len(frontier) == 1:
            return frontier[0][0]
        return UnionOp([entry[0] for entry in frontier])

    def _types_of_term(self, term: object) -> list[Type] | None:
        inferred = _term_type(term, self.schema, self.candidates)
        if inferred is None:
            return None
        if is_system_union(inferred):
            return [branch for _, branch in inferred.branches]
        return [inferred]

    def _advance(self, frontier: list, component: object) -> list:
        advanced = []
        for plan, current, types, branch_bound in frontier:
            advanced.extend(
                self._advance_entry(plan, current, types, component,
                                    branch_bound))
        return advanced

    def _advance_entry(self, plan: Operator, current: DataVar,
                       types: list[Type], component: object,
                       bound: set) -> list:
        if isinstance(component, Sel):
            return self._advance_sel(plan, current, types, component,
                                     bound)
        if isinstance(component, Index):
            return self._advance_index(plan, current, types, component,
                                       bound)
        if isinstance(component, Deref):
            out = self.fresh_var()
            structures = []
            for tp in types:
                structures.extend(_deref_type(tp, self.schema))
            return [(StepOp(plan, current, "deref", None, out), out,
                     _dedup(structures), bound)]
        if isinstance(component, Bind):
            variable = component.variable
            if variable in bound:
                if _plain_scan_of(plan, current):
                    return [(self._fuse_interval_join(plan, variable),
                             current, types, bound)]
                return [(SelectOp(plan, Eq(variable, current)),
                         current, types, bound)]
            self.candidates.setdefault(variable, []).extend(types)
            return [(BindOp(plan, variable, current), variable, types,
                     bound | {variable})]
        if isinstance(component, SetBind):
            variable = component.variable
            element_types = []
            for tp in types:
                for base in _deref_type(tp, self.schema):
                    if isinstance(base, SetType):
                        element_types.append(base.element)
            self.candidates.setdefault(
                variable, []).extend(element_types)
            return [(UnnestOp(plan, current, variable, mode="set"),
                     variable, _dedup(element_types),
                     bound | {variable})]
        if isinstance(component, PathVar):
            return self._advance_path_var(plan, current, types,
                                          component, bound)
        raise CompilationError(f"unknown path component {component!r}")

    def _advance_sel(self, plan: Operator, current: DataVar,
                     types: list[Type], component: Sel,
                     bound: set) -> list:
        attribute = component.attribute
        if _plain_scan_of(plan, current):
            fused = self._fuse_scan_sel(plan, types, component, bound)
            if fused is not None:
                return fused
        if isinstance(attribute, AttName):
            out = self.fresh_var()
            targets = []
            for tp in types:
                for base in _deref_type(tp, self.schema):
                    targets.extend(_attr_targets(base, attribute.name))
            if not targets:
                return []
            return [(StepOp(plan, current, "attr", attribute.name, out),
                     out, _dedup(targets), bound)]
        # attribute variable
        if attribute in bound:
            out = self.fresh_var()
            targets = []
            for tp in types:
                for base in _deref_type(tp, self.schema):
                    for _, target in _all_attrs(base):
                        targets.append(target)
            return [(StepOp(plan, current, "attr_by_var", attribute,
                            out), out, _dedup(targets), bound)]
        # fan out over every candidate attribute (Section 5.4)
        names: dict[str, list[Type]] = {}
        for tp in types:
            for base in _deref_type(tp, self.schema):
                for name, target in _all_attrs(base):
                    names.setdefault(name, []).append(target)
        entries = []
        for name in sorted(names):
            out = self.fresh_var()
            branch = StepOp(plan, current, "attr", name, out)
            branch = BindOp(branch, attribute, Const(name))
            entries.append((branch, out, _dedup(names[name]),
                            bound | {attribute}))
        return entries

    def _fuse_scan_sel(self, scan: StructuralScanOp,
                       types: list[Type],
                       component: Sel, bound: set) -> list | None:
        """Fuse a selection that directly follows a structural scan
        into one :class:`StructuralAttrScanOp` — the scan's AttrStep
        slices enumerate exactly the holders that can match, so the
        plan never materialises the subtree-then-filter intermediate.
        Returns ``None`` when the selection has no fused form (an
        already-bound attribute variable)."""
        attribute = component.attribute
        if isinstance(attribute, AttName):
            targets = []
            for tp in types:
                for base in _deref_type(tp, self.schema):
                    targets.extend(_attr_targets(base, attribute.name))
            if not targets:
                return []
            out = self.fresh_var()
            return [(StructuralAttrScanOp(
                scan.child, scan.source_var, scan.path_var,
                scan.out_var, attribute.name, None, out),
                out, _dedup(targets), bound)]
        if attribute in bound:
            return None
        # unbound attribute variable: one fused scan replaces the whole
        # fan-out over candidate names; the variable is bound per row
        names: dict[str, list[Type]] = {}
        for tp in types:
            for base in _deref_type(tp, self.schema):
                for name, target in _all_attrs(base):
                    names.setdefault(name, []).append(target)
        if not names:
            return []
        out = self.fresh_var()
        targets = [target for group in names.values()
                   for target in group]
        return [(StructuralAttrScanOp(
            scan.child, scan.source_var, scan.path_var, scan.out_var,
            None, attribute, out),
            out, _dedup(targets), bound | {attribute})]

    def _fuse_interval_join(self, scan: StructuralScanOp,
                            probe: DataVar) -> IntervalJoinOp:
        """Fuse the equality of a structural scan's endpoint with an
        already-bound variable into one :class:`IntervalJoinOp` — the
        ancestor/descendant interval join (experiment P9): the join
        probes the block's occurrences of the bound value instead of
        enumerating the subtree and filtering it."""
        atom = Eq(probe, scan.out_var)
        if _TEST_MUTATION == "interval_probe_misbound":
            # seeded bug: probe the variable the scan itself binds — the
            # join then consumes a variable nothing upstream produces
            probe = scan.out_var
        return IntervalJoinOp(scan.child, scan.source_var, scan.path_var,
                              scan.out_var, probe, atom)

    def _advance_index(self, plan: Operator, current: DataVar,
                       types: list[Type], component: Index,
                       bound: set) -> list:
        element_types = []
        for tp in types:
            for base in _deref_type(tp, self.schema):
                if isinstance(base, ListType):
                    element_types.append(base.element)
                elif isinstance(base, TupleType):
                    element_types.extend(
                        TupleType([(n, f)]) for n, f in base.fields)
                elif isinstance(base, UnionType):
                    for marker, branch in base.branches:
                        if isinstance(branch, TupleType):
                            element_types.extend(
                                TupleType([(n, f)])
                                for n, f in branch.fields)
                        else:
                            element_types.append(
                                TupleType([(marker, branch)]))
        if not element_types:
            return []
        element_types = _dedup(element_types)
        if isinstance(component.index, int):
            out = self.fresh_var()
            return [(StepOp(plan, current, "index", component.index,
                            out), out, element_types, bound)]
        variable = component.index
        if variable in bound:
            out = self.fresh_var()
            return [(StepOp(plan, current, "index_by_var", variable,
                            out), out, element_types, bound)]
        out = self.fresh_var()
        return [(UnnestOp(plan, current, out, index_var=variable,
                          mode="positions"), out,
                 element_types, bound | {variable})]

    def _advance_path_var(self, plan: Operator, current: DataVar,
                          types: list[Type],
                          component: PathVar, bound: set) -> list:
        if component in bound:
            # a re-used path variable: apply it generically at runtime
            out = self.fresh_var()
            residual = PathAtom(current, PathTerm([component,
                                                   Bind(out)]))
            return [(FormulaOp(plan, residual), out, [], bound)]
        if self.structural:
            # one range scan replaces the whole fan-out: the scan binds
            # the path variable and its endpoint directly, typed by the
            # union of every schema path's target (the scan enumerates
            # exactly those endpoints at runtime)
            targets = [target for tp in types
                       for target in schema_path_targets(self.schema, tp)]
            out = self.fresh_var("node")
            return [(StructuralScanOp(plan, current, component, out),
                     out, _dedup(targets), bound | {component})]
        # Candidate valuations in enumeration order, deduplicated at the
        # historical one-branch-per-(steps, target) granularity.
        ordered: list = []
        seen_signatures: set = set()
        for tp in types:
            for schema_path in enumerate_schema_paths(self.schema, tp):
                rendered = tuple(str(s) for s in schema_path.steps)
                signature = (rendered, schema_path.target)
                if signature in seen_signatures:
                    continue
                seen_signatures.add(signature)
                ordered.append((schema_path, rendered))
        # Candidate paths sharing a prefix share its *operators and
        # fresh variables*: the chains are built over a step trie, so
        # the branches of the resulting UnionOp already form a DAG and
        # the optimizer's factoring pass can merge the common prefixes
        # into SharedOp nodes instead of re-walking them per branch.
        trie: dict[tuple, tuple] = {(): (plan, current, [])}
        leaves: dict[tuple, MakePathOp] = {}
        entries = []
        for schema_path, rendered in ordered:
            prefix: tuple = ()
            for step, step_key in zip(schema_path.steps, rendered):
                key = prefix + (step_key,)
                if key not in trie:
                    parent, cursor, template = trie[prefix]
                    out = self.fresh_var()
                    if isinstance(step, SchemaAttr):
                        node = StepOp(parent, cursor, "attr",
                                      step.name, out)
                        added = ("attr", step.name)
                    elif isinstance(step, SchemaIndex):
                        position = self.fresh_var("pos")
                        node = UnnestOp(parent, cursor, out,
                                        index_var=position,
                                        mode="positions")
                        added = ("index_from", position)
                    elif isinstance(step, SchemaElem):
                        node = UnnestOp(parent, cursor, out, mode="set")
                        added = ("elem_from", out)
                    elif isinstance(step, SchemaDeref):
                        node = StepOp(parent, cursor, "deref", None, out)
                        added = ("deref",)
                    else:  # pragma: no cover
                        raise CompilationError(
                            f"unknown schema step {step!r}")
                    trie[key] = (node, out, template + [added])
                prefix = key
            branch_plan, cursor, template = trie[prefix]
            leaf = leaves.get(prefix)
            if leaf is None:
                leaf = MakePathOp(branch_plan, list(template), component)
                leaves[prefix] = leaf
            entries.append((leaf, cursor, [schema_path.target],
                            bound | {component}))
        return entries


def _plain_scan_of(plan: Operator, current: DataVar) -> bool:
    """``plan`` is a structural scan (not yet fused with a selection)
    whose endpoint is the frontier's current variable."""
    return (isinstance(plan, StructuralScanOp)
            and not isinstance(plan, StructuralAttrScanOp)
            and current is plan.out_var)


def _all_attrs(tp: Type) -> list[tuple[str, Type]]:
    if isinstance(tp, TupleType):
        return list(tp.fields)
    if isinstance(tp, UnionType):
        pairs = list(tp.branches)
        # implicit selectors: attributes inside tuple branches
        for _, branch in tp.branches:
            if isinstance(branch, TupleType):
                pairs.extend(branch.fields)
        return pairs
    return []


def _dedup(types: list[Type]) -> list[Type]:
    return list(dict.fromkeys(types))
