package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// This file is the declarative aggregate API (API v3): JSON-serializable
// predicate and aggregate specs that compile once into the closure form
// (Aggregate) the estimators execute. Closures cannot cross the network;
// specs can, so estimation requests become wire-expressible — the basis
// of the /v1/estimate job endpoint of internal/httpapi.

// Predicate operators of the PredSpec AST.
const (
	OpAttrCmp = "attr_cmp" // numeric attribute comparison
	OpTagEq   = "tag_eq"   // categorical attribute equality
	OpInRect  = "in_rect"  // tuple location inside a rectangle
	OpAnd     = "and"      // conjunction of Args
	OpOr      = "or"       // disjunction of Args
	OpNot     = "not"      // negation of Args[0]
)

// Comparison operators of OpAttrCmp.
const (
	CmpLT = "lt"
	CmpLE = "le"
	CmpGT = "gt"
	CmpGE = "ge"
	CmpEQ = "eq"
	CmpNE = "ne"
)

// RectSpec is the wire form of an axis-aligned rectangle.
type RectSpec struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// Rect converts to the geometry type.
func (r RectSpec) Rect() geom.Rect {
	return geom.NewRect(geom.Pt(r.MinX, r.MinY), geom.Pt(r.MaxX, r.MaxY))
}

// rectSpecOf converts a geometry rectangle to its wire form.
func rectSpecOf(r geom.Rect) RectSpec {
	return RectSpec{MinX: r.Min.X, MinY: r.Min.Y, MaxX: r.Max.X, MaxY: r.Max.Y}
}

// PredSpec is one node of the declarative predicate AST: a selection
// condition over returned tuples that serializes to JSON and compiles
// to the closure form the estimators evaluate per record. Op selects
// the node kind; the other fields are per-op operands:
//
//	{"op":"attr_cmp","attr":"rating","cmp":"ge","value":4}
//	{"op":"tag_eq","tag":"gender","equals":"f"}
//	{"op":"in_rect","rect":{"min_x":0,"min_y":0,"max_x":100,"max_y":100}}
//	{"op":"and","args":[...]}   {"op":"or","args":[...]}   {"op":"not","args":[one]}
//
// Build nodes with the AttrCmp/TagEq/InRect/And/Or/Not constructors;
// Validate rejects malformed trees (unknown op, empty conjunction, a
// negation without exactly one argument, ...).
type PredSpec struct {
	Op string `json:"op"`
	// OpAttrCmp operands.
	Attr  string  `json:"attr,omitempty"`
	Cmp   string  `json:"cmp,omitempty"`
	Value float64 `json:"value,omitempty"`
	// OpTagEq operands.
	Tag    string `json:"tag,omitempty"`
	Equals string `json:"equals,omitempty"`
	// OpInRect operand.
	Rect *RectSpec `json:"rect,omitempty"`
	// OpAnd/OpOr children; OpNot's single child.
	Args []PredSpec `json:"args,omitempty"`
}

// AttrCmp builds a numeric comparison predicate: Attr(attr) cmp value.
// A tuple without the attribute compares as 0 (the Record.Attr
// convention).
func AttrCmp(attr, cmp string, value float64) PredSpec {
	return PredSpec{Op: OpAttrCmp, Attr: attr, Cmp: cmp, Value: value}
}

// TagEq builds a categorical equality predicate: Tag(tag) == value.
func TagEq(tag, value string) PredSpec {
	return PredSpec{Op: OpTagEq, Tag: tag, Equals: value}
}

// InRect builds a location predicate: the tuple lies inside rect. Over
// LNR interfaces it triggers position inference (§4.3): an aggregate
// whose selection contains it gets NeedsLocation.
func InRect(rect geom.Rect) PredSpec {
	rs := rectSpecOf(rect)
	return PredSpec{Op: OpInRect, Rect: &rs}
}

// And builds the conjunction of args (at least one required).
func And(args ...PredSpec) PredSpec { return PredSpec{Op: OpAnd, Args: args} }

// Or builds the disjunction of args (at least one required).
func Or(args ...PredSpec) PredSpec { return PredSpec{Op: OpOr, Args: args} }

// Not negates p.
func Not(p PredSpec) PredSpec { return PredSpec{Op: OpNot, Args: []PredSpec{p}} }

// Validate checks the node and its subtree, returning a descriptive
// error for the first malformed node found.
func (p *PredSpec) Validate() error {
	switch p.Op {
	case OpAttrCmp:
		if p.Attr == "" {
			return fmt.Errorf("core: attr_cmp needs a non-empty attr")
		}
		switch p.Cmp {
		case CmpLT, CmpLE, CmpGT, CmpGE, CmpEQ, CmpNE:
		default:
			return fmt.Errorf("core: attr_cmp has unknown cmp %q (want lt|le|gt|ge|eq|ne)", p.Cmp)
		}
		if len(p.Args) != 0 {
			return fmt.Errorf("core: attr_cmp takes no args")
		}
	case OpTagEq:
		if p.Tag == "" {
			return fmt.Errorf("core: tag_eq needs a non-empty tag")
		}
		if len(p.Args) != 0 {
			return fmt.Errorf("core: tag_eq takes no args")
		}
	case OpInRect:
		if p.Rect == nil {
			return fmt.Errorf("core: in_rect needs a rect")
		}
		if p.Rect.MaxX < p.Rect.MinX || p.Rect.MaxY < p.Rect.MinY {
			return fmt.Errorf("core: in_rect rect has max < min")
		}
		if len(p.Args) != 0 {
			return fmt.Errorf("core: in_rect takes no args")
		}
	case OpAnd, OpOr:
		if len(p.Args) == 0 {
			return fmt.Errorf("core: %s needs at least one arg", p.Op)
		}
		for i := range p.Args {
			if err := p.Args[i].Validate(); err != nil {
				return err
			}
		}
	case OpNot:
		if len(p.Args) != 1 {
			return fmt.Errorf("core: not takes exactly one arg, got %d", len(p.Args))
		}
		if err := p.Args[0].Validate(); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("core: predicate is missing an op")
	default:
		return fmt.Errorf("core: unknown predicate op %q", p.Op)
	}
	return nil
}

// needsLocation reports whether evaluating the subtree reads the tuple
// location (any in_rect node).
func (p *PredSpec) needsLocation() bool {
	if p.Op == OpInRect {
		return true
	}
	for i := range p.Args {
		if p.Args[i].needsLocation() {
			return true
		}
	}
	return false
}

// compile builds the closure tree for a validated node. The closures
// contain no spec machinery: evaluating one costs the same as a
// hand-written condition.
func (p *PredSpec) compile() func(Record) bool {
	switch p.Op {
	case OpAttrCmp:
		attr, v := p.Attr, p.Value
		switch p.Cmp {
		case CmpLT:
			return func(r Record) bool { return r.Attr(attr) < v }
		case CmpLE:
			return func(r Record) bool { return r.Attr(attr) <= v }
		case CmpGT:
			return func(r Record) bool { return r.Attr(attr) > v }
		case CmpGE:
			return func(r Record) bool { return r.Attr(attr) >= v }
		case CmpEQ:
			return func(r Record) bool { return r.Attr(attr) == v }
		default: // CmpNE
			return func(r Record) bool { return r.Attr(attr) != v }
		}
	case OpTagEq:
		tag, v := p.Tag, p.Equals
		return func(r Record) bool { return r.Tag(tag) == v }
	case OpInRect:
		rect := p.Rect.Rect()
		return func(r Record) bool { return r.HasLoc && rect.Contains(r.Loc) }
	case OpAnd:
		kids := compileArgs(p.Args)
		return func(r Record) bool {
			for _, k := range kids {
				if !k(r) {
					return false
				}
			}
			return true
		}
	case OpOr:
		kids := compileArgs(p.Args)
		return func(r Record) bool {
			for _, k := range kids {
				if k(r) {
					return true
				}
			}
			return false
		}
	default: // OpNot
		kid := p.Args[0].compile()
		return func(r Record) bool { return !kid(r) }
	}
}

func compileArgs(args []PredSpec) []func(Record) bool {
	kids := make([]func(Record) bool, len(args))
	for i := range args {
		kids[i] = args[i].compile()
	}
	return kids
}

// String renders the predicate for aggregate labels: rating>=4,
// gender=f, in-rect, not x, (a and b), (a or b).
func (p PredSpec) String() string {
	switch p.Op {
	case OpAttrCmp:
		sym := map[string]string{
			CmpLT: "<", CmpLE: "<=", CmpGT: ">", CmpGE: ">=", CmpEQ: "=", CmpNE: "!=",
		}[p.Cmp]
		return p.Attr + sym + strconv.FormatFloat(p.Value, 'g', -1, 64)
	case OpTagEq:
		return p.Tag + "=" + p.Equals
	case OpInRect:
		return "in-rect"
	case OpAnd, OpOr:
		sep := " and "
		if p.Op == OpOr {
			sep = " or "
		}
		parts := make([]string, len(p.Args))
		for i := range p.Args {
			parts[i] = p.Args[i].String()
		}
		return "(" + strings.Join(parts, sep) + ")"
	case OpNot:
		if len(p.Args) == 1 {
			return "not " + p.Args[0].String()
		}
		return "not ?"
	default:
		return "?"
	}
}

// Aggregate kinds of AggSpec.
const (
	AggCount = "count" // COUNT(*) / COUNT(where)
	AggSum   = "sum"   // SUM(attr) [where]
	AggAvg   = "avg"   // AVG(attr) [where] = SUM/COUNT via RatioOf
)

// AggSpec is a declarative, JSON-serializable aggregate, so the same
// aggregate can run in process or travel to a remote estimation job.
// Kind selects COUNT, SUM or AVG; SUM and AVG name the attribute;
// Where optionally restricts the aggregate with a PredSpec.
//
//	{"kind":"count"}
//	{"kind":"sum","attr":"enrollment"}
//	{"kind":"avg","attr":"rating","where":{"op":"tag_eq","tag":"open_sunday","equals":"yes"}}
//
// COUNT and SUM compile to one Aggregate each (Compile); AVG expands to
// a SUM/COUNT pair combined by RatioOf when the run finishes (the §1.3
// scheme) — PlanBatch does that for a whole spec list.
type AggSpec struct {
	Kind  string    `json:"kind"`
	Attr  string    `json:"attr,omitempty"`
	Where *PredSpec `json:"where,omitempty"`
	// Label overrides the derived result name.
	Label string `json:"label,omitempty"`
}

// CountSpec builds COUNT(*).
func CountSpec() AggSpec { return AggSpec{Kind: AggCount} }

// SumSpec builds SUM(attr).
func SumSpec(attr string) AggSpec { return AggSpec{Kind: AggSum, Attr: attr} }

// AvgSpec builds AVG(attr).
func AvgSpec(attr string) AggSpec { return AggSpec{Kind: AggAvg, Attr: attr} }

// WithWhere returns a copy of the spec restricted by p.
func (s AggSpec) WithWhere(p PredSpec) AggSpec {
	s.Where = &p
	return s
}

// WithLabel returns a copy of the spec with an explicit result name.
func (s AggSpec) WithLabel(label string) AggSpec {
	s.Label = label
	return s
}

// Validate rejects malformed aggregate specs.
func (s *AggSpec) Validate() error {
	switch s.Kind {
	case AggCount:
		if s.Attr != "" {
			return fmt.Errorf("core: count takes no attr (got %q)", s.Attr)
		}
	case AggSum, AggAvg:
		if s.Attr == "" {
			return fmt.Errorf("core: %s needs an attr", s.Kind)
		}
	case "":
		return fmt.Errorf("core: aggregate is missing a kind")
	default:
		return fmt.Errorf("core: unknown aggregate kind %q", s.Kind)
	}
	if s.Where != nil {
		return s.Where.Validate()
	}
	return nil
}

// Name returns the result label the spec reports under: Label when
// set, a derived "KIND(attr | pred)" form otherwise.
func (s AggSpec) Name() string { return s.name() }

// name derives the result label.
func (s *AggSpec) name() string {
	if s.Label != "" {
		return s.Label
	}
	switch s.Kind {
	case AggCount:
		if s.Where != nil {
			return "COUNT(" + s.Where.String() + ")"
		}
		return "COUNT(*)"
	case AggSum:
		if s.Where != nil {
			return "SUM(" + s.Attr + " | " + s.Where.String() + ")"
		}
		return "SUM(" + s.Attr + ")"
	default: // AggAvg
		if s.Where != nil {
			return "AVG(" + s.Attr + " | " + s.Where.String() + ")"
		}
		return "AVG(" + s.Attr + ")"
	}
}

// compileValue builds the per-record value closure for a validated
// COUNT or SUM spec body (selection folded in, §5.1 post-processing).
func compileValue(kind, attr string, cond func(Record) bool) func(Record) float64 {
	switch {
	case kind == AggCount && cond == nil:
		return func(Record) float64 { return 1 }
	case kind == AggCount:
		return func(r Record) float64 {
			if cond(r) {
				return 1
			}
			return 0
		}
	case cond == nil:
		return func(r Record) float64 { return r.Attr(attr) }
	default:
		return func(r Record) float64 {
			if cond(r) {
				return r.Attr(attr)
			}
			return 0
		}
	}
}

// Compile turns a COUNT or SUM spec into the closure-form Aggregate the
// estimators execute. AVG specs do not compile to a single Aggregate:
// plan them with PlanBatch, or run their SUM and COUNT halves and
// combine the results with RatioOf.
func (s *AggSpec) Compile() (Aggregate, error) {
	if err := s.Validate(); err != nil {
		return Aggregate{}, err
	}
	if s.Kind == AggAvg {
		return Aggregate{}, fmt.Errorf("core: avg expands to a SUM/COUNT pair; plan it with PlanBatch or combine the halves with RatioOf")
	}
	var cond func(Record) bool
	needsLoc := false
	if s.Where != nil {
		cond = s.Where.compile()
		needsLoc = s.Where.needsLocation()
	}
	return Aggregate{
		Name:          s.name(),
		Value:         compileValue(s.Kind, s.Attr, cond),
		NeedsLocation: needsLoc,
	}, nil
}
