fn main() {
    let n = input("N", 16);
    let a = zeros(n);
    for i in 0 .. n { a[i] = a[i] * 0.5 + 1.0; }
    if n < 0 { nosuch(1); }
    print(a[0]);
}
