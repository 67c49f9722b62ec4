package service

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
)

// TestSaveJobConcurrent: saves of one job race from the submit path,
// the runner and Cancel. Each must succeed, and job.json must end up
// holding the job's final state, whole.
func TestSaveJobConcurrent(t *testing.T) {
	j := &Job{ID: "jsave", Scenario: testScenario("save-race"), Trials: 100, BaseSeed: 1, dir: t.TempDir(), state: StateRunning}

	const savers = 64
	errs := make(chan error, savers)
	var wg sync.WaitGroup
	for range savers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.done.Add(1)
			errs <- saveJob(j)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("saveJob: %v", err)
		}
	}

	data, err := os.ReadFile(j.recordPath())
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("job.json does not decode: %v\n%s", err, data)
	}
	var sc bytes.Buffer
	if err := json.Compact(&sc, rec.Scenario); err != nil {
		t.Fatal(err)
	}
	rec.Scenario = sc.Bytes()
	if want := j.record(); rec.Done != savers || !reflect.DeepEqual(rec, want) {
		t.Fatalf("job.json = %+v, want the final state %+v", rec, want)
	}
}
