package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nmsl"
	apiv1 "nmsl/api/v1"
	"nmsl/internal/ast"
	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/lexer"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
	"nmsl/internal/snmp"
	"nmsl/internal/token"
)

// compiled is one specification revision as the layered pipeline
// leaves it.
type compiled struct {
	spec  *ast.Spec
	model *consistency.Model
}

// compileFacade is the untraced front end: the nmsl.Compiler a CLI
// uses (parse, analyze, link, model build).
func compileFacade(name, src string) (*compiled, error) {
	c := nmsl.NewCompiler()
	if err := c.CompileSource(name, src); err != nil {
		return nil, err
	}
	s, err := c.Finish()
	if err != nil {
		return nil, err
	}
	return &compiled{spec: s.AST(), model: s.Model()}, nil
}

// compileTraced runs the same front end one layer call at a time, each
// in its own span under parent: parser.Parse, Analyzer.AnalyzeFile,
// Analyzer.Finish (link) and consistency.BuildModel.
func compileTraced(tr *tracer, parent int, name, src string) (*compiled, error) {
	var f *parser.File
	var err error
	tr.do("parser.parse", parent, true, func(int) { f, err = parser.Parse(name, src) })
	if err != nil {
		return nil, err
	}
	a := sema.NewAnalyzer()
	consistency.RegisterOutput(a.Tables())
	configgen.RegisterOutput(a.Tables())
	tr.do("sema.analyze", parent, true, func(int) { a.AnalyzeFile(f) })
	var spec *ast.Spec
	tr.do("sema.link", parent, true, func(int) { spec, err = a.Finish() })
	if err != nil {
		return nil, err
	}
	var m *consistency.Model
	tr.do("consistency.model", parent, true, func(int) { m = consistency.BuildModel(spec) })
	tr.note("parser.decls", float64(len(f.Decls)))
	return &compiled{spec: spec, model: m}, nil
}

// compile picks the traced or untraced front end.
func compile(tr *tracer, parent int, name, src string) (*compiled, error) {
	if tr == nil {
		return compileFacade(name, src)
	}
	return compileTraced(tr, parent, name, src)
}

// lexProbe scans src on its own, outside any operation span, so the
// lexer's share of parser.parse can be read off.
func lexProbe(tr *tracer, src string) {
	if tr == nil {
		return
	}
	n := 0
	tr.do("lexer.all", 0, true, func(int) {
		lx := lexer.New(src)
		if all, ok := any(lx).(interface{ All() []token.Token }); ok {
			n = len(all.All())
			return
		}
		for lx.Next().Kind != token.EOF {
			n++
		}
		n++
	})
	tr.note("lexer.tokens", float64(n))
}

// check runs a full consistency check.
func check(ctx context.Context, tr *tracer, parent int, name string, m *consistency.Model, workers int) (*consistency.Report, error) {
	var rep *consistency.Report
	var err error
	tr.do(name, parent, true, func(int) {
		rep, err = consistency.CheckContext(ctx, m, consistency.Options{Workers: workers})
	})
	return rep, err
}

// generate derives every agent's configuration.
func generate(tr *tracer, parent int, m *consistency.Model) map[string]*snmp.Config {
	var cfgs map[string]*snmp.Config
	tr.do("configgen.generate", parent, true, func(int) { cfgs = configgen.Generate(m) })
	return cfgs
}

// reportDigest hashes a report's wire form: the bytes a client sees.
func reportDigest(rep *consistency.Report) (string, error) {
	data, err := json.Marshal(apiv1.FromReport(rep))
	if err != nil {
		return "", fmt.Errorf("report JSON: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// agentInstances counts the model's agent process instances: the
// targets configgen.Generate must produce one configuration for.
func agentInstances(m *consistency.Model) int {
	n := 0
	for _, in := range m.Instances {
		if in.Proc.IsAgent() {
			n++
		}
	}
	return n
}
