package expr

import (
	"testing"

	"joinview/internal/types"
)

var testSchema = types.NewSchema(
	types.Column{Name: "k", Kind: types.KindInt},
	types.Column{Name: "bal", Kind: types.KindFloat},
	types.Column{Name: "name", Kind: types.KindString},
)

var testTuple = types.Tuple{types.Int(7), types.Float(10.5), types.String("alice")}

func evalBool(t *testing.T, e Expr) bool {
	t.Helper()
	v, err := e.Eval(testSchema, testTuple)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return Truthy(v)
}

func TestColAndConst(t *testing.T) {
	v, err := Col{"name"}.Eval(testSchema, testTuple)
	if err != nil || v.S != "alice" {
		t.Fatalf("Col eval = %v, %v", v, err)
	}
	if _, err := (Col{"zzz"}).Eval(testSchema, testTuple); err == nil {
		t.Error("unknown column must error")
	}
	c := Const{types.Int(5)}
	v, _ = c.Eval(nil, nil)
	if v.I != 5 {
		t.Error("const eval wrong")
	}
	// CheckColumns finds an unknown column wherever it hides, even behind
	// a conjunct that would short-circuit evaluation.
	eq := func(col string) Expr { return Cmp{Op: EQ, L: Col{col}, R: Const{types.Int(1)}} }
	if err := CheckColumns(And{[]Expr{eq("k"), Or{[]Expr{Not{eq("bal")}, eq("name")}}}}, testSchema); err != nil {
		t.Errorf("CheckColumns on known columns: %v", err)
	}
	if err := CheckColumns(And{[]Expr{Const{types.Int(0)}, Or{[]Expr{Not{eq("zzz")}}}}}, testSchema); err == nil {
		t.Error("CheckColumns missed an unknown column")
	}
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		r    types.Value
		want bool
	}{
		{EQ, types.Int(7), true},
		{EQ, types.Int(8), false},
		{NE, types.Int(8), true},
		{LT, types.Int(8), true},
		{LE, types.Int(7), true},
		{GT, types.Int(6), true},
		{GE, types.Int(7), true},
		{GT, types.Int(7), false},
	}
	for _, c := range cases {
		e := Cmp{c.op, Col{"k"}, Const{c.r}}
		if got := evalBool(t, e); got != c.want {
			t.Errorf("%s = %v, want %v", e, got, c.want)
		}
	}
}

func TestNullComparisonIsFalse(t *testing.T) {
	e := Cmp{EQ, Col{"k"}, Const{types.Null()}}
	v, err := e.Eval(testSchema, testTuple)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Errorf("cmp with NULL should be NULL, got %v", v)
	}
	ok, err := Matches(e, testSchema, testTuple)
	if err != nil || ok {
		t.Errorf("Matches with NULL predicate = %v, %v; want false, nil", ok, err)
	}
}

func TestBooleanCombinators(t *testing.T) {
	tr := Cmp{EQ, Col{"k"}, Const{types.Int(7)}}
	fa := Cmp{EQ, Col{"k"}, Const{types.Int(0)}}
	if !evalBool(t, And{[]Expr{tr, tr}}) {
		t.Error("AND(true,true) failed")
	}
	if evalBool(t, And{[]Expr{tr, fa}}) {
		t.Error("AND(true,false) should be false")
	}
	if !evalBool(t, And{}) {
		t.Error("empty AND should be true")
	}
	if !evalBool(t, Or{[]Expr{fa, tr}}) {
		t.Error("OR(false,true) failed")
	}
	if evalBool(t, Or{}) {
		t.Error("empty OR should be false")
	}
	if !evalBool(t, Not{fa}) || evalBool(t, Not{tr}) {
		t.Error("NOT wrong")
	}
	if !evalBool(t, True) {
		t.Error("True should be true")
	}
}

func TestMatchesNilPredicate(t *testing.T) {
	ok, err := Matches(nil, testSchema, testTuple)
	if !ok || err != nil {
		t.Errorf("Matches(nil) = %v, %v", ok, err)
	}
}

func TestStrings(t *testing.T) {
	e := And{[]Expr{
		Cmp{EQ, Col{"k"}, Const{types.Int(7)}},
		Cmp{LT, Col{"name"}, Const{types.String("z")}},
	}}
	if got := e.String(); got != "k = 7 AND name < 'z'" {
		t.Errorf("String() = %q", got)
	}
	if (And{}).String() != "TRUE" || (Or{}).String() != "FALSE" {
		t.Error("empty combinator strings wrong")
	}
	if (Not{Col{"k"}}).String() != "NOT (k)" {
		t.Error("Not string wrong")
	}
	if (Or{[]Expr{Col{"k"}}}).String() != "(k)" {
		t.Error("Or string wrong")
	}
	for op, s := range map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if op.String() != s {
			t.Errorf("op %d string = %q, want %q", op, op.String(), s)
		}
	}
	if (Const{types.String("x")}).String() != "'x'" {
		t.Error("string const should be quoted")
	}
}

func TestProjection(t *testing.T) {
	p := NewProjection([]string{"name", "k"})
	out, err := p.Apply(testSchema, testTuple)
	if err != nil {
		t.Fatal(err)
	}
	want := types.Tuple{types.String("alice"), types.Int(7)}
	if !out.Equal(want) {
		t.Errorf("Apply = %v, want %v", out, want)
	}
	os, err := p.OutputSchema(testSchema)
	if err != nil || os.Len() != 2 || os.Cols[0].Name != "name" {
		t.Errorf("OutputSchema = %v, %v", os, err)
	}
	// Identity projection passes through.
	var id *Projection
	if !id.Identity() {
		t.Error("nil projection should be identity")
	}
	out, err = id.Apply(testSchema, testTuple)
	if err != nil || !out.Equal(testTuple) {
		t.Errorf("identity Apply = %v, %v", out, err)
	}
	// Missing column errors.
	bad := NewProjection([]string{"zzz"})
	if _, err := bad.Apply(testSchema, testTuple); err == nil {
		t.Error("projection of missing column must error")
	}
	if _, err := bad.OutputSchema(testSchema); err == nil {
		t.Error("OutputSchema of missing column must error")
	}
}
