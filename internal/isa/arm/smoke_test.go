package arm_test

import (
	"context"
	"testing"

	"delinq/internal/core"
	"delinq/internal/vm"
)

const smokeSrc = `
int g[10];
struct node { int val; struct node *next; };
int sum(int *a, int n) {
  int s; int i;
  s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
  return s;
}
int main() {
  int i;
  struct node *head; struct node *p;
  head = 0;
  for (i = 0; i < 10; i = i + 1) {
    g[i] = i * 3;
    p = malloc(8);
    p->val = i; p->next = head; head = p;
  }
  i = sum(g, 10);
  p = head;
  while (p) { i = i + p->val; p = p->next; }
  print_int(i);
  return i;
}`

func TestSmokeManual(t *testing.T) {
	ctx := context.Background()
	for _, opt := range []bool{false, true} {
		var exits [2]int32
		var outs [2]string
		for k, name := range []string{"mips", "arm"} {
			img, err := core.BuildSourceISA(smokeSrc, opt, name)
			if err != nil {
				t.Fatalf("build %s opt=%v: %v", name, opt, err)
			}
			res, err := vm.RunContext(ctx, img, vm.Options{CaptureOutput: true})
			if err != nil {
				t.Fatalf("run %s opt=%v: %v", name, opt, err)
			}
			exits[k], outs[k] = res.Exit, res.Output
		}
		if exits[0] != exits[1] || outs[0] != outs[1] {
			t.Fatalf("opt=%v mismatch: mips=(%d,%q) arm=(%d,%q)", opt, exits[0], outs[0], exits[1], outs[1])
		}
	}
	img, err := core.BuildSourceISA(smokeSrc, true, "arm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.IdentifyImageCtx(ctx, img, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("arm loads: %d delinquent: %d", len(res.Loads), len(res.Delinquent()))
}
