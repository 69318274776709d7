package main

import (
	"testing"
	"time"
)

func TestVisibilityProofNeedsGenerationAndRows(t *testing.T) {
	for _, c := range []struct {
		name      string
		ack       uint64
		gen, rows string
		batch     int
		ok        bool
	}{
		{"at the acked generation", 7, "7", "120", 120, true},
		{"after a later ingest", 7, "9", "120", 120, true},
		{"before the ack", 7, "6", "120", 120, false},
		{"rows missing", 7, "7", "119", 120, false},
		{"rows duplicated", 7, "8", "240", 120, false},
		{"no generation header", 7, "", "120", 120, false},
		{"no row count", 7, "7", "", 120, false},
	} {
		err := visibilityError(c.ack, c.gen, c.rows, c.batch)
		if (err == nil) != c.ok {
			t.Errorf("%s: visibilityError = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestQueryOfParsesTheMixParameters(t *testing.T) {
	q, limit, err := queryOf("/query?end=2024-01-08&fields=JobID%2CState&limit=1000&start=2024-01-01&state=FAILED&steps=1&user=u1")
	if err != nil {
		t.Fatal(err)
	}
	if q.User != "u1" || q.State != "FAILED" || !q.IncludeSteps || limit != 1000 ||
		len(q.Fields) != 2 || q.Start.Day() != 1 || q.End.Day() != 8 {
		t.Errorf("queryOf = %+v, limit %d", q, limit)
	}
}

func TestWindowBeforeIngest(t *testing.T) {
	first := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		path string
		ok   bool
	}{
		{"/query?start=2024-01-03&end=2024-01-10&user=u1", true},
		{"/query?start=2024-01-25&end=2024-02-01&user=u1", true},
		{"/query?start=2024-01-25&end=2024-02-02&user=u1", false},
		{"/query?start=2024-01-25&user=u1", false},
	} {
		q, _, err := queryOf(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := windowBefore(q, first); got != c.ok {
			t.Errorf("%s: windowBefore = %v, want %v", c.path, got, c.ok)
		}
	}
}
