package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is where BENCHMARK.json sits relative to this directory: the
// harness is run from bench/ (`go run -C bench .`, `go test` in bench/).
const specPath = "../BENCHMARK.json"

// metricDecl is one metric declaration of BENCHMARK.json. Bound is the share
// of the baseline's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json, the contract this harness is
// checked against, that the harness reads: the metric names and units it may
// emit, the bounds -compare and -repeat judge by, and the workload names.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// newMetrics returns every declared metric at 0 with its declared unit. A
// layer a workload does not touch keeps reading 0.
func newMetrics(decls []metricDecl) Metrics {
	m := Metrics{}
	for _, d := range decls {
		m[d.Name] = Metric{Unit: d.Unit}
	}
	return m
}

// set stores a value under a declared name. An undeclared name means the
// harness and BENCHMARK.json have drifted apart — a task registered without
// its `task.<name>.*` sweep rows declared, say — which the self-test catches.
func (m Metrics) set(name string, v float64) {
	d, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	d.Value = v
	m[name] = d
}

func (m Metrics) value(name string) float64 { return m[name].Value }
