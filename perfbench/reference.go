package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// inputSets is the number of distinct input sets. --seed picks one
// (seed mod inputSets), and every set has its output digests committed
// under reference/, so every run compares its outputs with a reference
// recorded before the change under test.
const inputSets = 32

func inputSet(seed int64) int64 { return (seed%inputSets + inputSets) % inputSets }

// referenceDir is where --record writes, relative to the checkout root.
const referenceDir = "perfbench/reference"

//go:embed reference/*.json
var referenceFS embed.FS

// references holds one workload's committed output digests by input
// set, one digest per compared output (the workflow's federated run, or
// each tournament trace's scorecard), and what this run produced.
type references struct {
	workload string
	set      int64
	record   bool
	want     []string
	got      []string
}

// loadReferences reads the committed digests of one input set. A set
// with none is not an error here: check fails on it unless recording.
func loadReferences(workload string, set int64, record bool) (*references, error) {
	all, err := readReferenceFile(workload)
	if err != nil {
		return nil, err
	}
	return &references{workload: workload, set: set, record: record, want: all[strconv.FormatInt(set, 10)]}, nil
}

func readReferenceFile(workload string) (map[string][]string, error) {
	all := map[string][]string{}
	b, err := referenceFS.ReadFile("reference/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return all, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("reference/%s.json: %w", workload, err)
	}
	return all, nil
}

// check compares the digest of output i with the committed one. Every
// rep of a run must also agree with the run's first rep, so recording
// takes a digest only when the run reproduced it.
func (r *references) check(res *result, i int, got, what string) {
	for len(r.got) <= i {
		r.got = append(r.got, "")
	}
	if r.got[i] == "" {
		r.got[i] = got
	}
	res.check(r.got[i] == got, "%s digest %.16s differs from this run's first %.16s", what, got, r.got[i])
	switch {
	case r.record:
	case i >= len(r.want):
		res.check(false, "%s: input set %d has no committed reference digest (record one with --record)", what, r.set)
	default:
		res.check(r.want[i] == got, "%s digest %.16s differs from input set %d's reference %.16s", what, got, r.set, r.want[i])
	}
}

// save writes the run's digests as the input set's reference into the
// source tree, keeping every other set's recorded there. The next build
// embeds them.
func (r *references) save() error {
	path := filepath.Join(referenceDir, r.workload+".json")
	all := map[string][]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	all[strconv.FormatInt(r.set, 10)] = r.got
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(referenceDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
