package k8s

import (
	"strings"
	"testing"
)

// TestCommitsDoNotAliasPreviousVersion: the three commits that used to edit
// the stored object in place — status write, terminating mark, finalizer
// removal (which reused the finalizer slice's backing array) — install a
// new object, so the pointer delivered before still hashes to its
// commit-time content.
func TestCommitsDoNotAliasPreviousVersion(t *testing.T) {
	writes := map[string]func(cli *Client) *Response{
		"status write": func(cli *Client) *Response {
			return cli.UpdateStatus(KindJob, "ns", "j", func(obj Object) bool {
				obj.(*Job).Status.Active = 3
				return true
			})
		},
		"delete mark": func(cli *Client) *Response { return cli.Delete(KindJob, "ns", "j") },
		"finalizer removal": func(cli *Client) *Response {
			return cli.RemoveFinalizer(KindJob, "ns", "j", "test/a")
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			eng, api := newTestAPI()
			cli := api.Client()
			rec := cli.RecordCommits()
			var delivered []Object
			cli.Watch(KindJob, WatchOptions{}, func(ev Event) { delivered = append(delivered, ev.Object) })
			mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j",
				Finalizers: []string{"test/a", "test/b"}}})
			before := delivered[0]
			committed := contentHash(before)

			resp := write(cli)
			eng.Run()
			if err := resp.Err(); err != nil {
				t.Fatal(err)
			}
			after, _ := cli.Get(KindJob, "ns", "j")
			if len(delivered) != 2 || delivered[1] != after || after == before {
				t.Fatalf("the write delivered %d objects, last %p, stored %p, previous %p: want a new object",
					len(delivered), delivered[len(delivered)-1], after, before)
			}
			if after.GetMeta().ResourceVersion <= before.GetMeta().ResourceVersion {
				t.Error("resource version did not advance")
			}
			if contentHash(before) != committed {
				t.Errorf("the previous version changed under its readers: %+v", before)
			}
			if err := rec.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRecorderNamesTheWrittenObject: the three ways to write to a committed
// object — through a Get result, through a Lister result, through a map a
// Clone still shares — each change the hash, and Verify names the first
// written object in delivery order. An informer created after the recorder
// was armed is covered too.
func TestRecorderNamesTheWrittenObject(t *testing.T) {
	writers := map[string]func(cli *Client){
		"Get result": func(cli *Client) {
			obj, _ := cli.Get(KindPod, "ns", "p1")
			obj.(*Pod).Spec.NodeName = "n9"
		},
		"Lister result": func(cli *Client) {
			obj, _ := cli.Lister(KindPod).Get("ns", "p1")
			obj.GetMeta().Deleting = true
		},
		"shared map": func(cli *Client) {
			obj, _ := cli.Get(KindPod, "ns", "p1")
			obj.Clone().GetMeta().Labels["job-name"] = "other"
		},
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			eng, api := newTestAPI()
			cli := api.Client()
			rec := cli.RecordCommits() // before any informer exists
			for _, n := range []string{"p0", "p1", "p2"} {
				mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: n,
					Labels: map[string]string{"job-name": "j"}}})
			}
			cli.Informer(KindPod) // initial LIST: recorded without a delivery
			if err := rec.Verify(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			write(cli)
			err := rec.Verify()
			if err == nil || !strings.Contains(err.Error(), "Pod ns/p1 rv 2 written after commit") {
				t.Fatalf("Verify = %v, want pod ns/p1 rv 2 named", err)
			}
		})
	}
}

// TestStatusCommitAllocations guards what one status commit costs with one
// informer and three handlers on the kind: the Clone and the request. The
// delivery record is pooled, the informer cell stays, and none of it is a
// map, whatever the object's annotations, labels and finalizers hold.
func TestStatusCommitAllocations(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	for i := 0; i < 3; i++ {
		cli.Watch(KindJob, WatchOptions{}, func(Event) {})
	}
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j",
		Annotations: map[string]string{"a": "1", "b": "2", "c": "3"},
		Labels:      map[string]string{"l": "1", "m": "2"},
		Finalizers:  []string{"f1", "f2"}}})
	bump := func(obj Object) bool { obj.(*Job).Status.Active++; return true }
	allocs := testing.AllocsPerRun(200, func() {
		cli.UpdateStatus(KindJob, "ns", "j", bump)
		eng.Run()
	})
	const budget = 2
	if allocs > budget {
		t.Errorf("a status commit allocates %v objects, budget %d", allocs, budget)
	}
	t.Logf("%v allocs per status commit (budget %d)", allocs, budget)
}
