package manifest

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// listing1 is the paper's Listing 1: a job requesting a Per-Resource VNI.
const listing1 = `
apiVersion: batch/v1
kind: Job
metadata:
  name: vni-test-job
  annotations:
    vni: "true"
spec:
  template:
    spec:
      containers:
        image: alpine:latest
`

// listing2 is the paper's Listing 2: a VNI claim.
const listing2 = `
apiVersion: v1
kind: VniClaim
metadata:
  name: vni-claim-test
  namespace: vnitest
spec:
  name: test
`

// listing3 is the paper's Listing 3: a job redeeming the claim.
const listing3 = `
apiVersion: batch/v1
kind: Job
metadata:
  name: vni-test-job
  namespace: vnitest
  annotations:
    vni: vni-claim-test
spec:
  template:
    spec:
      containers:
        image: alpine:latest
`

func TestParseListing1(t *testing.T) {
	objs, err := Parse(strings.NewReader(listing1))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Fatalf("objects = %d", len(objs))
	}
	job, ok := objs[0].(*k8s.Job)
	if !ok {
		t.Fatalf("object type %T", objs[0])
	}
	if job.Meta.Name != "vni-test-job" || job.Meta.Namespace != "default" {
		t.Errorf("meta = %+v", job.Meta)
	}
	requested, claim := vniapi.Requested(job.Meta.Annotations)
	if !requested || claim != "" {
		t.Errorf("annotations = %v", job.Meta.Annotations)
	}
	if job.Spec.Parallelism != 1 || job.Spec.Template.Image != "alpine:latest" {
		t.Errorf("spec = %+v", job.Spec)
	}
}

func TestParseListing2(t *testing.T) {
	objs, err := Parse(strings.NewReader(listing2))
	if err != nil {
		t.Fatal(err)
	}
	claim, ok := objs[0].(*k8s.Custom)
	if !ok || claim.Meta.Kind != vniapi.KindVniClaim {
		t.Fatalf("object = %+v", objs[0])
	}
	if claim.Meta.Namespace != "vnitest" || claim.Spec[vniapi.ClaimSpecName] != "test" {
		t.Errorf("claim = %+v", claim)
	}
}

func TestParseListing3(t *testing.T) {
	objs, err := Parse(strings.NewReader(listing3))
	if err != nil {
		t.Fatal(err)
	}
	job := objs[0].(*k8s.Job)
	requested, claim := vniapi.Requested(job.Meta.Annotations)
	if !requested || claim != "vni-claim-test" {
		t.Errorf("claim redemption annotation = %v", job.Meta.Annotations)
	}
}

func TestParseMultiDocument(t *testing.T) {
	combined := listing2 + "\n---\n" + listing3
	objs, err := Parse(strings.NewReader(combined))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("objects = %d", len(objs))
	}
	if objs[0].GetMeta().Kind != vniapi.KindVniClaim || objs[1].GetMeta().Kind != k8s.KindJob {
		t.Errorf("kinds = %v, %v", objs[0].GetMeta().Kind, objs[1].GetMeta().Kind)
	}
}

// TestParseContainersSequence: Kubernetes itself requires containers: to be
// a sequence; the paper's listings abbreviate it to one mapping. Both
// spellings must yield the same Job.
func TestParseContainersSequence(t *testing.T) {
	parse := func(containers string) *k8s.Job {
		t.Helper()
		objs, err := Parse(strings.NewReader(`
apiVersion: batch/v1
kind: Job
metadata:
  name: vni-test-job
  annotations:
    vni: "true"
spec:
  template:
    spec:
      containers:
` + containers))
		if err != nil {
			t.Fatalf("containers:\n%s%v", containers, err)
		}
		return objs[0].(*k8s.Job)
	}
	abbreviated := parse("        image: osu:7.3\n")
	sequence := parse("        - name: c\n          image: osu:7.3\n        - name: sidecar\n          image: envoy\n")
	if !reflect.DeepEqual(abbreviated, sequence) || sequence.Spec.Template.Image != "osu:7.3" {
		t.Errorf("spellings differ:\nmapping:  %+v\nsequence: %+v", abbreviated.Spec, sequence.Spec)
	}
}

// TestParseThreeDocumentStream: a manifest stream holds as many documents
// as it has, empty ones (a leading or doubled separator) skipped.
func TestParseThreeDocumentStream(t *testing.T) {
	objs, err := Parse(strings.NewReader("---\n" + listing2 + "---\n" + listing3 + "---\n---\n" + listing1))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []k8s.Kind
	for _, o := range objs {
		kinds = append(kinds, o.GetMeta().Kind)
	}
	if want := []k8s.Kind{vniapi.KindVniClaim, k8s.KindJob, k8s.KindJob}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
	// An error in a later document names its line in the whole stream.
	_, err = Parse(strings.NewReader(listing2 + "---\nkind: Job\nmetadata\n"))
	if !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), "line 11") {
		t.Errorf("err = %v, want ErrSyntax at line 11", err)
	}
}

func TestParseFullJobSpec(t *testing.T) {
	y := `
kind: Job
metadata:
  name: big
  namespace: t
spec:
  parallelism: 4
  ttlSecondsAfterFinished: 0
  template:
    spec:
      terminationGracePeriodSeconds: 25
      containers:
        image: osu:7.3
`
	objs, err := Parse(strings.NewReader(y))
	if err != nil {
		t.Fatal(err)
	}
	job := objs[0].(*k8s.Job)
	if job.Spec.Parallelism != 4 {
		t.Errorf("parallelism = %d", job.Spec.Parallelism)
	}
	if !job.Spec.DeleteAfterFinished || job.Spec.TTLAfterFinished != 0 {
		t.Errorf("ttl = %+v", job.Spec)
	}
	if job.Spec.Template.TerminationGracePeriod != 25*time.Second {
		t.Errorf("grace = %v", job.Spec.Template.TerminationGracePeriod)
	}
	if job.Spec.Template.Image != "osu:7.3" {
		t.Errorf("image = %q", job.Spec.Template.Image)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing kind":      "metadata:\n  name: x\n",
		"unsupported kind":  "kind: Pod\nmetadata:\n  name: x\n",
		"missing metadata":  "kind: Job\n",
		"missing name":      "kind: Job\nmetadata:\n  namespace: x\n",
		"bad parallelism":   "kind: Job\nmetadata:\n  name: x\nspec:\n  parallelism: banana\n",
		"tab indentation":   "kind: Job\nmetadata:\n\tname: x\n",
		"not key-value":     "kind: Job\njust words\n",
		"negative ttl":      "kind: Job\nmetadata:\n  name: x\nspec:\n  ttlSecondsAfterFinished: -4\n",
		"bad grace seconds": "kind: Job\nmetadata:\n  name: x\nspec:\n  template:\n    spec:\n      terminationGracePeriodSeconds: soon\n",
	}
	for name, y := range cases {
		if _, err := Parse(strings.NewReader(y)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseCommentsAndQuotes(t *testing.T) {
	y := `
# a claim with comments
kind: VniClaim
metadata:
  name: "quoted-name"   # trailing comment
  namespace: 'single'
spec:
  name: test
`
	objs, err := Parse(strings.NewReader(y))
	if err != nil {
		t.Fatal(err)
	}
	m := objs[0].GetMeta()
	if m.Name != "quoted-name" || m.Namespace != "single" {
		t.Errorf("meta = %+v", m)
	}
}

func TestParseEmptyInput(t *testing.T) {
	objs, err := Parse(strings.NewReader("\n# only comments\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 0 {
		t.Errorf("objects = %d", len(objs))
	}
}

func TestSyntaxErrorsWrapped(t *testing.T) {
	_, err := Parse(strings.NewReader("kind Job\n"))
	if !errors.Is(err, ErrSyntax) {
		t.Errorf("err = %v, want ErrSyntax", err)
	}
}
