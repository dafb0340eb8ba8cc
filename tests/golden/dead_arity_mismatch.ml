fn main() {
    let n = input("N", 16);
    let s = 0;
    for i in 0 .. n { s = s + scale(i); }
    print(s);
}
fn scale(x) { return x * 2.0; }
fn unused(y) { return scale(y, 2); }
