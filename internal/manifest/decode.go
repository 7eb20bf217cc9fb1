// Package manifest parses the user-facing YAML interface of the paper's
// integration — Kubernetes Jobs with the vni annotation (Listing 1 and 3)
// and VniClaim resources (Listing 2) — into the typed objects of
// internal/k8s, so manifests can be submitted with `shscluster -f`.
//
// The YAML itself is read by internal/yamlsub, the subset parser scenario
// files share: block mappings and sequences, scalars, `---` document
// separators and `#` comments; anything else is rejected, not guessed at.
package manifest

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/yamlsub"
)

// ErrSyntax wraps parse failures.
var ErrSyntax = yamlsub.ErrSyntax

// Parse reads YAML documents and returns the typed objects they declare.
// Supported kinds: Job (batch/v1, paper Listings 1 and 3) and VniClaim
// (paper Listing 2).
func Parse(r io.Reader) ([]k8s.Object, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	docs, err := yamlsub.ParseDocs(src)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var out []k8s.Object
	for i, doc := range docs {
		obj, err := decode(doc)
		if err != nil {
			return nil, fmt.Errorf("manifest: document %d: %w", i+1, err)
		}
		out = append(out, obj)
	}
	return out, nil
}

func decode(doc *yamlsub.Node) (k8s.Object, error) {
	kind := doc.Str("kind")
	switch kind {
	case "Job":
		return decodeJob(doc)
	case "VniClaim":
		return decodeClaim(doc)
	case "":
		return nil, fmt.Errorf("missing kind")
	default:
		return nil, fmt.Errorf("unsupported kind %q", kind)
	}
}

func decodeMeta(doc *yamlsub.Node, kind k8s.Kind) (k8s.Meta, error) {
	meta := k8s.Meta{Kind: kind}
	md := doc.Get("metadata")
	if md == nil {
		return meta, fmt.Errorf("missing metadata")
	}
	meta.Name = md.Str("name")
	if meta.Name == "" {
		return meta, fmt.Errorf("missing metadata.name")
	}
	meta.Namespace = md.Str("namespace")
	if meta.Namespace == "" {
		meta.Namespace = "default"
	}
	if ann := md.Get("annotations"); ann != nil && ann.Kind == yamlsub.Map {
		meta.Annotations = make(map[string]string, len(ann.Fields))
		for _, f := range ann.Fields {
			meta.Annotations[f.Key] = f.Val.Scalar
		}
	}
	return meta, nil
}

// seconds reads an optional whole-seconds field of n; ok is false when the
// field is absent.
func seconds(n *yamlsub.Node, key string) (d sim.Duration, ok bool, err error) {
	s := n.Str(key)
	if s == "" {
		return 0, false, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, false, fmt.Errorf("invalid %s %q", key, s)
	}
	return sim.Duration(v) * time.Second, true, nil
}

func decodeJob(doc *yamlsub.Node) (k8s.Object, error) {
	meta, err := decodeMeta(doc, k8s.KindJob)
	if err != nil {
		return nil, err
	}
	// The paper's admission workload: echo-style near-instant commands.
	job := &k8s.Job{Meta: meta, Spec: k8s.JobSpec{Parallelism: 1,
		Template: k8s.PodSpec{Image: "alpine:latest", RunDuration: 50 * time.Millisecond}}}
	spec := doc.Get("spec")
	if p := spec.Str("parallelism"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid spec.parallelism %q", p)
		}
		job.Spec.Parallelism = n
	}
	if job.Spec.TTLAfterFinished, job.Spec.DeleteAfterFinished, err = seconds(spec, "ttlSecondsAfterFinished"); err != nil {
		return nil, err
	}
	if tpl := spec.Get("template", "spec"); tpl != nil {
		if job.Spec.Template.TerminationGracePeriod, _, err = seconds(tpl, "terminationGracePeriodSeconds"); err != nil {
			return nil, err
		}
		job.Spec.Template.HostNetwork = tpl.Str("hostNetwork") == "true"
		// Single-container model: Kubernetes spells containers as a
		// sequence, the paper's listings abbreviate it to one mapping;
		// either way the first container's image is the pod's.
		c := tpl.Get("containers")
		if c != nil && c.Kind == yamlsub.Seq {
			c = c.Items[0]
		}
		if image := c.Str("image"); image != "" {
			job.Spec.Template.Image = image
		}
	}
	return job, nil
}

func decodeClaim(doc *yamlsub.Node) (k8s.Object, error) {
	meta, err := decodeMeta(doc, vniapi.KindVniClaim)
	if err != nil {
		return nil, err
	}
	claimName := doc.Str("spec", "name")
	if claimName == "" {
		claimName = meta.Name
	}
	return &k8s.Custom{
		Meta: meta,
		Spec: map[string]string{vniapi.ClaimSpecName: claimName},
	}, nil
}
